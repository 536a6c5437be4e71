(* The executor's differential oracle: run one compiled model on one
   input through the frozen tree walker ([Interp_reference]) and through
   the closure-compiled executor ([Interp]), and require the same
   outcome — every state tensor equal bit for bit, or the same exception
   with the same message.  The walker also counts loads, stores and
   FLOPs; the tests that check the static cost walk take their dynamic
   counts from it. *)

module Interp = Cortex_ilir.Interp
module R = Interp_reference
module Lower = Cortex_lower.Lower
module Tensor = Cortex_tensor.Tensor

let bits (t : Tensor.t) = (t.Tensor.shape, Array.map Int64.bits_of_float t.Tensor.data)

let outcome f = match f () with () -> None | exception e -> Some (Printexc.to_string e)

(* A run's observable result: the exception's text if it raised, and
   the state tensors' bits as they stood at the end or at the
   failure. *)
type result = string option * (int array * int64 array) list

(* [params] is called once per run; hand each run its own copy so no
   run can see another's writes. *)
let fresh params name = Tensor.copy (params name)

(* The walker's run, with its counters. *)
let reference (compiled : Lower.compiled) lin ~params : result * R.counters =
  let r = Lower.resolve compiled lin in
  let ctx = R.create ~count:true ~num_internal_batches:r.Lower.res_num_batch_launches () in
  (* What [Lower.bind] and [Runtime.execute_lin] set up. *)
  List.iter (fun (f, g) -> R.bind_uf ctx f g) r.Lower.res_bindings;
  List.iter (fun (_, t) -> ignore (R.get_tensor ctx t)) compiled.Lower.state_tensors;
  List.iter
    (fun (glob, mirror) -> R.bind_tensor ctx mirror (R.get_tensor ctx glob))
    compiled.Lower.aliases;
  List.iter (fun (name, t) -> R.bind_tensor ctx t (fresh params name)) compiled.Lower.param_tensors;
  let failure = outcome (fun () -> R.run_program ctx compiled.Lower.prog) in
  ( (failure, List.map (fun (_, t) -> bits (R.get_tensor ctx t)) compiled.Lower.state_tensors),
    R.counters ctx )

let executor (compiled : Lower.compiled) lin ~params : result =
  let bound = Lower.bind compiled lin in
  let ctx = bound.Lower.ctx in
  List.iter
    (fun (name, t) -> Interp.bind_tensor ctx t (fresh params name))
    compiled.Lower.param_tensors;
  let failure = outcome (fun () -> Interp.exec (Interp.compile compiled.Lower.prog) ctx) in
  (failure, List.map (fun (_, t) -> bits (Interp.get_tensor ctx t)) compiled.Lower.state_tensors)

let describe ((failure, _) : result) =
  match failure with None -> "ran" | Some e -> "raised " ^ e

(* [None] when the executor matches the walker's outcome and tensors;
   otherwise what differed. *)
let check compiled lin ~params =
  let want, (c : R.counters) = reference compiled lin ~params in
  let got = executor compiled lin ~params in
  if got = want then None
  else
    Some
      (Printf.sprintf "executor %s, walker %s after %d loads %d stores %d flops%s" (describe got)
         (describe want) c.R.loads c.R.stores c.R.flops
         (if fst got = fst want then ": state tensors differ" else ""))
