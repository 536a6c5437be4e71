(* The ILIR tree-walking interpreter exactly as it stood before
   [Interp] became a closure compiler: the reference oracle the
   compiled executor is checked against, as [Cost_reference] is for the
   staged cost walk.  Only its exception is shared with [Interp], so
   both raise the same constructor.  Do not edit it along with
   lib/ilir/interp.ml. *)

open Cortex_ilir
open Ir
module Tensor = Cortex_tensor.Tensor
module Nonlinear = Cortex_tensor.Nonlinear

exception Runtime_error = Interp.Runtime_error

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type value = Vi of int | Vf of float

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable loads_by_space : int array;
  mutable stores_by_space : int array;
}

let space_index = function Param -> 0 | Global -> 1 | Shared -> 2 | Register -> 3

let fresh_counters () =
  { loads = 0; stores = 0; flops = 0; loads_by_space = Array.make 4 0; stores_by_space = Array.make 4 0 }

type context = {
  ufs : (int, int array -> int) Hashtbl.t;
  storage : (int, Tensor.t) Hashtbl.t;
  tensors_meta : (int, tensor) Hashtbl.t;
  num_internal_batches : int;
  count : bool;
  ctrs : counters;
}

let create ?(count = false) ~num_internal_batches () =
  {
    ufs = Hashtbl.create 16;
    storage = Hashtbl.create 16;
    tensors_meta = Hashtbl.create 16;
    num_internal_batches;
    count;
    ctrs = fresh_counters ();
  }

let counters ctx = ctx.ctrs
let num_internal_batches ctx = ctx.num_internal_batches

let bind_uf ctx (u : Uf.t) f = Hashtbl.replace ctx.ufs u.Uf.uid f
let bind_uf0 ctx u v = bind_uf ctx u (fun _ -> v)

let bind_tensor ctx (t : tensor) storage =
  Hashtbl.replace ctx.tensors_meta t.tid t;
  Hashtbl.replace ctx.storage t.tid storage

let as_int = function
  | Vi n -> n
  | Vf v -> fail "expected int, got float %g" v

let as_float = function Vf v -> v | Vi n -> float_of_int n

let rec eval ctx env e =
  match e with
  | Int n -> Vi n
  | Flt v -> Vf v
  | Var v ->
    (try List.assoc v.Var.vid env with Not_found -> fail "unbound variable %s" v.Var.vname)
  | Binop (op, a, b) ->
    let va = eval ctx env a and vb = eval ctx env b in
    (match (va, vb) with
     | Vi x, Vi y ->
       Vi
         (match op with
          | Add -> x + y
          | Sub -> x - y
          | Mul -> x * y
          | Div -> if y = 0 then fail "division by zero" else x / y
          | Mod -> if y = 0 then fail "mod by zero" else x mod y
          | Min -> min x y
          | Max -> max x y)
     | _ ->
       if ctx.count then ctx.ctrs.flops <- ctx.ctrs.flops + 1;
       let x = as_float va and y = as_float vb in
       Vf
         (match op with
          | Add -> x +. y
          | Sub -> x -. y
          | Mul -> x *. y
          | Div -> x /. y
          | Mod -> Float.rem x y
          | Min -> Float.min x y
          | Max -> Float.max x y))
  | Cmp (op, a, b) ->
    let x = eval ctx env a and y = eval ctx env b in
    let r =
      match (x, y) with
      | Vi x, Vi y -> (
        match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | Eq -> x = y
        | Ne -> x <> y)
      | _ ->
        let x = as_float x and y = as_float y in
        (match op with
         | Lt -> x < y
         | Le -> x <= y
         | Gt -> x > y
         | Ge -> x >= y
         | Eq -> x = y
         | Ne -> x <> y)
    in
    Vi (if r then 1 else 0)
  | And (a, b) -> Vi (if as_int (eval ctx env a) <> 0 && as_int (eval ctx env b) <> 0 then 1 else 0)
  | Or (a, b) -> Vi (if as_int (eval ctx env a) <> 0 || as_int (eval ctx env b) <> 0 then 1 else 0)
  | Not a -> Vi (if as_int (eval ctx env a) = 0 then 1 else 0)
  | Select (c, a, b) -> if as_int (eval ctx env c) <> 0 then eval ctx env a else eval ctx env b
  | Load (t, idx) ->
    let storage = get_tensor_ ctx t in
    let offsets = Array.of_list (List.map (fun i -> as_int (eval ctx env i)) idx) in
    if ctx.count then begin
      ctx.ctrs.loads <- ctx.ctrs.loads + 1;
      let s = space_index t.space in
      ctx.ctrs.loads_by_space.(s) <- ctx.ctrs.loads_by_space.(s) + 1
    end;
    (try Vf (Tensor.get storage offsets)
     with Invalid_argument msg -> fail "load %s: %s" t.tname msg)
  | UfCall (u, args) ->
    let f =
      match Hashtbl.find_opt ctx.ufs u.Uf.uid with
      | Some f -> f
      | None -> fail "unbound uninterpreted function %s" u.Uf.uname
    in
    let args = Array.of_list (List.map (fun a -> as_int (eval ctx env a)) args) in
    Vi (f args)
  | Math (k, a) ->
    if ctx.count then ctx.ctrs.flops <- ctx.ctrs.flops + Nonlinear.flops k;
    Vf (Nonlinear.apply k (as_float (eval ctx env a)))

and get_tensor_ ctx (t : tensor) =
  match Hashtbl.find_opt ctx.storage t.tid with
  | Some s -> s
  | None ->
    let extents =
      Array.of_list (List.map (fun e -> as_int (eval ctx [] e)) t.extents)
    in
    let storage = Tensor.zeros extents in
    bind_tensor ctx t storage;
    storage

let eval_expr = eval
let get_tensor ctx t = get_tensor_ ctx t

let rec run_stmt ctx env s =
  match s with
  | For { v; extent; body; _ } ->
    let n = as_int (eval ctx env extent) in
    for i = 0 to n - 1 do
      run_stmt ctx ((v.Var.vid, Vi i) :: env) body
    done
  | Let (v, e, body) -> run_stmt ctx ((v.Var.vid, eval ctx env e) :: env) body
  | Store (t, idx, value) ->
    let storage = get_tensor_ ctx t in
    let offsets = Array.of_list (List.map (fun i -> as_int (eval ctx env i)) idx) in
    let v = as_float (eval ctx env value) in
    if ctx.count then begin
      ctx.ctrs.stores <- ctx.ctrs.stores + 1;
      let si = space_index t.space in
      ctx.ctrs.stores_by_space.(si) <- ctx.ctrs.stores_by_space.(si) + 1
    end;
    (try Tensor.set storage offsets v
     with Invalid_argument msg -> fail "store %s: %s" t.tname msg)
  | If (c, a, b) ->
    if as_int (eval ctx env c) <> 0 then run_stmt ctx env a
    else (match b with Some b -> run_stmt ctx env b | None -> ())
  | Seq ss -> List.iter (run_stmt ctx env) ss
  | Barrier | Nop -> ()

(* Consecutive per-batch kernels execute batch-major — for each batch,
   every kernel of the run is launched — matching how an unfused
   framework interleaves operator launches with the dependence-carrying
   batch sequence. *)
let run_program ctx (p : program) =
  let rec go = function
    | [] -> ()
    | { launch = Once; body; _ } :: rest ->
      run_stmt ctx [] body;
      go rest
    | ({ launch = PerInternalBatch _; _ } :: _) as kernels ->
      let is_per_batch k =
        match k.launch with PerInternalBatch _ -> true | Once -> false
      in
      let rec take_prefix acc = function
        | k :: tl when is_per_batch k -> take_prefix (k :: acc) tl
        | tl -> (List.rev acc, tl)
      in
      let group, rest = take_prefix [] kernels in
      for b = 0 to ctx.num_internal_batches - 1 do
        List.iter
          (fun k ->
            match k.launch with
            | PerInternalBatch bvar -> run_stmt ctx [ (bvar.Var.vid, Vi b) ] k.body
            | Once -> assert false)
          group
      done;
      go rest
  in
  go p.kernels
