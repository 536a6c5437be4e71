(* The executor's differential oracle: run one compiled model on one
   input through the frozen tree walker ([Interp_reference]) and through
   the closure-compiled executor ([Interp]), plain and counting, and
   require the same outcome — every state tensor equal bit for bit and
   the counters equal, or the same exception with the same message. *)

module Interp = Cortex_ilir.Interp
module R = Interp_reference
module Lower = Cortex_lower.Lower
module Linearizer = Cortex_linearizer.Linearizer
module Tensor = Cortex_tensor.Tensor

type counts = int * int * int * int array * int array

let bits (t : Tensor.t) = (t.Tensor.shape, Array.map Int64.bits_of_float t.Tensor.data)

let outcome f = match f () with () -> None | exception e -> Some (Printexc.to_string e)

let of_reference (c : R.counters) : counts =
  (c.R.loads, c.R.stores, c.R.flops, Array.copy c.R.loads_by_space, Array.copy c.R.stores_by_space)

let of_interp (c : Interp.counters) : counts =
  ( c.Interp.loads,
    c.Interp.stores,
    c.Interp.flops,
    Array.copy c.Interp.loads_by_space,
    Array.copy c.Interp.stores_by_space )

(* A run's observable result: the exception's text if it raised, and
   the state tensors' bits and the counters as they stood at the end or
   at the failure. *)
type result = string option * (int array * int64 array) list * counts

(* [params] is called once per run; hand each run its own copy so no
   run can see another's writes. *)
let fresh params name = Tensor.copy (params name)

let reference (compiled : Lower.compiled) lin ~params : result =
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
  ( failure,
    List.map (fun (_, t) -> bits (R.get_tensor ctx t)) compiled.Lower.state_tensors,
    of_reference (R.counters ctx) )

let executor ~count (compiled : Lower.compiled) lin ~params : result =
  let bound = Lower.bind compiled lin in
  let ctx = bound.Lower.ctx in
  List.iter
    (fun (name, t) -> Interp.bind_tensor ctx t (fresh params name))
    compiled.Lower.param_tensors;
  let failure = outcome (fun () -> Interp.exec (Interp.compile ~count compiled.Lower.prog) ctx) in
  ( failure,
    List.map (fun (_, t) -> bits (Interp.get_tensor ctx t)) compiled.Lower.state_tensors,
    of_interp (Interp.counters ctx) )

let describe ((failure, _, (loads, stores, flops, _, _)) : result) =
  Printf.sprintf "%s after %d loads %d stores %d flops"
    (match failure with None -> "ran" | Some e -> "raised " ^ e)
    loads stores flops

(* [None] when the plain executor matches the reference's outcome and
   tensors, and the counting one its counters too; otherwise what
   differed. *)
let check compiled lin ~params =
  let ((failure, tensors, _) as want) = reference compiled lin ~params in
  let counted = executor ~count:true compiled lin ~params in
  let plain_failure, plain_tensors, _ = executor ~count:false compiled lin ~params in
  if counted <> want then
    Some (Printf.sprintf "counting executor: %s, walker: %s" (describe counted) (describe want))
  else if plain_failure <> failure || plain_tensors <> tensors then
    Some (Printf.sprintf "plain executor differs: walker %s" (describe want))
  else None
