(* Numeric execution of ILIR programs, compiled to closures.

   [compile] walks a program once and turns every statement and
   expression into an OCaml closure over a [frame]; [exec] runs those
   closures against a context.  The frame is slot-indexed: each loop,
   let and batch binder owns one slot of an int, float or boxed-value
   array, picked from the static type of what it binds, and each tensor
   a [tslot] holding its flat data, extents and strides for the run.
   Nothing on the hot path looks a name up, allocates an index array or
   boxes an int.

   The executor is bitwise identical to the reference tree walker
   (test/interp_reference.ml, "the walker" below): float operations run
   in the same order on the same operands, int operands of a float operation are
   promoted with [float_of_int], bounds failures carry
   [Shape.flatten_index]'s messages, and every dynamic failure (an
   unbound variable or function, an int use of a float) is raised when
   the offending expression runs, never at compile time.  A [Select]
   whose branches have different types keeps a dynamically typed
   [value], the walker's representation of every value. *)

open Ir
module Tensor = Cortex_tensor.Tensor
module Shape = Cortex_tensor.Shape
module Nonlinear = Cortex_tensor.Nonlinear

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type value = Vi of int | Vf of float

let space_index = function Param -> 0 | Global -> 1 | Shared -> 2 | Register -> 3

type context = {
  ufs : (int, int array -> int) Hashtbl.t;
  storage : (int, Tensor.t) Hashtbl.t;
  num_internal_batches : int;
}

let create ~num_internal_batches () =
  { ufs = Hashtbl.create 16; storage = Hashtbl.create 16; num_internal_batches }

let num_internal_batches ctx = ctx.num_internal_batches

let bind_uf ctx (u : Uf.t) f = Hashtbl.replace ctx.ufs u.Uf.uid f
let bind_tensor ctx (t : tensor) storage = Hashtbl.replace ctx.storage t.tid storage

let find_uf ctx (u : Uf.t) =
  match Hashtbl.find_opt ctx.ufs u.Uf.uid with
  | Some f -> f
  | None -> fail "unbound uninterpreted function %s" u.Uf.uname

let as_int = function
  | Vi n -> n
  | Vf v -> fail "expected int, got float %g" v

let as_float = function Vf v -> v | Vi n -> float_of_int n

(* ---------- frames ---------- *)

(* A tensor's storage as one run sees it.  [rank] is -1 until the
   storage is known: bound tensors are filled in when the run starts,
   unbound ones are allocated zero-filled at their first access.  The
   extents and strides of the first dimensions are
   unpacked so ranks 1-3 index without allocating. *)
type tslot = {
  mutable rank : int;
  mutable data : float array;
  mutable shape : int array;
  mutable d0 : int;
  mutable d1 : int;
  mutable d2 : int;
  mutable s0 : int;  (* stride of dim 0; the last dimension's is 1 *)
  mutable s1 : int;
}

type frame = {
  ints : int array;
  flts : float array;
  vals : value array;
  tens : tslot array;
  ufs : (int array -> int) array;
  ctx : context;
  tensors : tensor array;  (* slot -> tensor, for first-use allocation *)
  extents : (frame -> int) array array;  (* slot -> compiled extents *)
}

let unresolved () = { rank = -1; data = [||]; shape = [||]; d0 = 0; d1 = 0; d2 = 0; s0 = 0; s1 = 0 }

let fill ts (s : Tensor.t) =
  let shape = s.Tensor.shape in
  let n = Array.length shape in
  let st = Shape.strides shape in
  let at a i = if i < n then a.(i) else 0 in
  ts.data <- s.Tensor.data;
  ts.shape <- shape;
  ts.d0 <- at shape 0;
  ts.d1 <- at shape 1;
  ts.d2 <- at shape 2;
  ts.s0 <- at st 0;
  ts.s1 <- at st 1;
  ts.rank <- n

(* First use of an unbound tensor: evaluate its extents in the context
   (no variable in scope), allocate, and bind it so later runs and
   [get_tensor] see the same storage. *)
let allocate fr k =
  let ext = fr.extents.(k) in
  let extents = Array.make (Array.length ext) 0 in
  Array.iteri (fun i f -> extents.(i) <- f fr) ext;
  let s = Tensor.zeros extents in
  bind_tensor fr.ctx fr.tensors.(k) s;
  fill fr.tens.(k) s

let[@inline] resolve fr k =
  let ts = Array.unsafe_get fr.tens k in
  if ts.rank < 0 then allocate fr k;
  ts

(* Raise what [Shape.flatten_index] says about indices an access found
   out of bounds (or of the wrong rank). *)
let out_of_bounds op name ts idx =
  match Shape.flatten_index ts.shape idx with
  | _ -> assert false
  | exception Invalid_argument msg -> fail "%s %s: %s" op name msg

let unbound_uf : int array -> int = fun _ -> assert false

(* ---------- executors ---------- *)

type step = Once of (frame -> unit) | Batched of (int * (frame -> unit)) array

type executor = {
  ex_kernels : kernel list;  (* the compiled program's, for [compiled_for] *)
  ex_ints : int;
  ex_flts : int;
  ex_vals : int;
  ex_tensors : tensor array;
  ex_extents : (frame -> int) array array;
  ex_ufs : Uf.t array;
  ex_steps : step array;
}

(* Compile-time state: slot counters and the tensor and function
   tables, each keyed by id. *)
type builder = {
  mutable n_ints : int;
  mutable n_flts : int;
  mutable n_vals : int;
  tids : (int, int) Hashtbl.t;
  mutable b_tensors : tensor list;  (* newest first *)
  b_extents : (int, (frame -> int) array) Hashtbl.t;
  uids : (int, int) Hashtbl.t;
  mutable b_ufs : Uf.t list;  (* newest first *)
}

let builder () =
  {
    n_ints = 0;
    n_flts = 0;
    n_vals = 0;
    tids = Hashtbl.create 16;
    b_tensors = [];
    b_extents = Hashtbl.create 16;
    uids = Hashtbl.create 16;
    b_ufs = [];
  }

let new_int b = b.n_ints <- b.n_ints + 1; b.n_ints - 1
let new_flt b = b.n_flts <- b.n_flts + 1; b.n_flts - 1
let new_val b = b.n_vals <- b.n_vals + 1; b.n_vals - 1

(* What a variable is bound to: the slot of its binder. *)
type binding = BI of int | BF of int | BV of int

(* A compiled expression, by static type.  [V] is dynamically typed:
   a [Select] with branches of different types, and anything computed
   from one. *)
type cexpr = I of (frame -> int) | F of (frame -> float) | V of (frame -> value)

let to_int = function
  | I f -> f
  | F f -> fun fr -> fail "expected int, got float %g" (f fr)
  | V f -> fun fr -> as_int (f fr)

let to_float = function
  | I f -> fun fr -> float_of_int (f fr)
  | F f -> f
  | V f -> fun fr -> as_float (f fr)

let to_value = function
  | I f -> fun fr -> Vi (f fr)
  | F f -> fun fr -> Vf (f fr)
  | V f -> f

let int_op op x y =
  match op with
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Div -> if y = 0 then fail "division by zero" else x / y
  | Mod -> if y = 0 then fail "mod by zero" else x mod y
  | Min -> min x y
  | Max -> max x y

let[@inline] float_op op x y =
  match op with
  | Add -> x +. y
  | Sub -> x -. y
  | Mul -> x *. y
  | Div -> x /. y
  | Mod -> Float.rem x y
  | Min -> Float.min x y
  | Max -> Float.max x y

let int_cmp op (x : int) y =
  match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y

let float_cmp op (x : float) y =
  match op with Lt -> x < y | Le -> x <= y | Gt -> x > y | Ge -> x >= y | Eq -> x = y | Ne -> x <> y

let bit b = if b then 1 else 0

let int_binop op x y =
  match op with
  | Add -> fun fr -> let a = x fr in a + y fr
  | Sub -> fun fr -> let a = x fr in a - y fr
  | Mul -> fun fr -> let a = x fr in a * y fr
  | op -> fun fr -> let a = x fr in int_op op a (y fr)

let float_binop op x y =
  match op with
  | Add -> fun fr -> let a = x fr in a +. y fr
  | Sub -> fun fr -> let a = x fr in a -. y fr
  | Mul -> fun fr -> let a = x fr in a *. y fr
  | Div -> fun fr -> let a = x fr in a /. y fr
  | op -> fun fr -> let a = x fr in float_op op a (y fr)

(* Index operands: a loop variable's slot is read in place. *)
type index = Slot of int | Fn of (frame -> int)

type access = {
  k : int;  (* tensor slot *)
  name : string;
  p : int;  (* with [q], the int slots of a rank-2 access indexed by two *)
  q : int;  (* variables, read in place by [offset]; else -1 *)
  off : frame -> tslot -> int;  (* flat offset, or -1 out of bounds *)
  bad : int array;  (* the indices of the last failing evaluation *)
}

let[@inline] rank2 bad ts i0 i1 =
  if ts.rank = 2 && i0 >= 0 && i0 < ts.d0 && i1 >= 0 && i1 < ts.d1 then (i0 * ts.s0) + i1
  else (bad.(0) <- i0; bad.(1) <- i1; -1)

(* The flat offset of an access, or -1 out of bounds.  Every load and
   store computes it here. *)
let[@inline] offset a fr ts =
  if a.p < 0 then a.off fr ts
  else rank2 a.bad ts (Array.unsafe_get fr.ints a.p) (Array.unsafe_get fr.ints a.q)

(* The bodies of every load and store.  An access resolves the tensor
   and evaluates the indices (and a store's value) before its bounds
   check, as the walker does. *)
let[@inline] load a fr =
  let ts = resolve fr a.k in
  let o = offset a fr ts in
  if o < 0 then out_of_bounds "load" a.name ts a.bad else Array.unsafe_get ts.data o

let[@inline] store a v fr =
  let ts = resolve fr a.k in
  let o = offset a fr ts in
  let x = v fr in
  if o < 0 then out_of_bounds "store" a.name ts a.bad else Array.unsafe_set ts.data o x

(* [t[i..] = t[i..] + e] with variable or constant indices, the
   accumulation of every lowered reduction: the load and the store share
   one offset and one bounds check.  The walker evaluates the same pure
   indices twice, to the same offset, and checks the load's bounds
   first, so its failure is the one raised. *)
let[@inline] accumulate a e fr =
  let ts = resolve fr a.k in
  let o = offset a fr ts in
  if o < 0 then out_of_bounds "load" a.name ts a.bad;
  let x = Array.unsafe_get ts.data o in
  let y = e fr in
  Array.unsafe_set ts.data o (x +. y)

(* A float binop of two loads, with no float boxed between them. *)
let[@inline] combine op x y fr =
  let p = load x fr in
  let q = load y fr in
  float_op op p q

let index_fn = function Slot s -> fun fr -> Array.unsafe_get fr.ints s | Fn f -> f

let rec compile_expr b scope e =
  match e with
  | Int n -> I (fun _ -> n)
  | Flt v -> F (fun _ -> v)
  | Var v -> (
    match List.assoc_opt v.Var.vid scope with
    | Some (BI s) -> I (fun fr -> Array.unsafe_get fr.ints s)
    | Some (BF s) -> F (fun fr -> Array.unsafe_get fr.flts s)
    | Some (BV s) -> V (fun fr -> Array.unsafe_get fr.vals s)
    | None ->
      let name = v.Var.vname in
      I (fun _ -> fail "unbound variable %s" name))
  | Binop (op, Load (ta, ia), Load (tc, ic)) ->
    let x = access b scope ta ia in
    let y = access b scope tc ic in
    F (fun fr -> combine op x y fr)
  | Binop (op, a, c) -> (
    let ca = compile_expr b scope a in
    let cc = compile_expr b scope c in
    match (ca, cc) with
    | I x, I y -> I (int_binop op x y)
    | V _, _ | _, V _ ->
      let x = to_value ca and y = to_value cc in
      V
        (fun fr ->
          let va = x fr in
          let vb = y fr in
          match (va, vb) with
          | Vi p, Vi q -> Vi (int_op op p q)
          | _ -> Vf (float_op op (as_float va) (as_float vb)))
    | _ -> F (float_binop op (to_float ca) (to_float cc)))
  | Cmp (op, a, c) -> (
    let ca = compile_expr b scope a in
    let cc = compile_expr b scope c in
    match (ca, cc) with
    | I x, I y -> I (fun fr -> let p = x fr in bit (int_cmp op p (y fr)))
    | V _, _ | _, V _ ->
      let x = to_value ca and y = to_value cc in
      I
        (fun fr ->
          let va = x fr in
          match (va, y fr) with
          | Vi p, Vi q -> bit (int_cmp op p q)
          | va, vb -> bit (float_cmp op (as_float va) (as_float vb)))
    | _ ->
      let x = to_float ca and y = to_float cc in
      I (fun fr -> let p = x fr in bit (float_cmp op p (y fr))))
  | And (a, c) ->
    let x = to_int (compile_expr b scope a) in
    let y = to_int (compile_expr b scope c) in
    I (fun fr -> bit (x fr <> 0 && y fr <> 0))
  | Or (a, c) ->
    let x = to_int (compile_expr b scope a) in
    let y = to_int (compile_expr b scope c) in
    I (fun fr -> bit (x fr <> 0 || y fr <> 0))
  | Not a ->
    let x = to_int (compile_expr b scope a) in
    I (fun fr -> bit (x fr = 0))
  | Select (c, a, d) -> (
    let cond = to_int (compile_expr b scope c) in
    match (compile_expr b scope a, compile_expr b scope d) with
    | I x, I y -> I (fun fr -> if cond fr <> 0 then x fr else y fr)
    | F x, F y -> F (fun fr -> if cond fr <> 0 then x fr else y fr)
    | ca, cd ->
      let x = to_value ca and y = to_value cd in
      V (fun fr -> if cond fr <> 0 then x fr else y fr))
  | Load (t, idx) -> F (compile_load b scope t idx)
  | UfCall (u, args) -> I (compile_uf b scope u args)
  | Math (k, a) ->
    let g = Nonlinear.apply k in
    let x = to_float (compile_expr b scope a) in
    F (fun fr -> g (x fr))

and compile_index b scope e =
  match e with
  | Var v -> (
    match List.assoc_opt v.Var.vid scope with
    | Some (BI s) -> Slot s
    | _ -> Fn (to_int (compile_expr b scope e)))
  | _ -> Fn (to_int (compile_expr b scope e))

and tensor_slot b (t : tensor) =
  match Hashtbl.find_opt b.tids t.tid with
  | Some k -> k
  | None ->
    let k = Hashtbl.length b.tids in
    Hashtbl.replace b.tids t.tid k;
    b.b_tensors <- t :: b.b_tensors;
    let ext = List.map (fun e -> to_int (compile_expr b [] e)) t.extents in
    Hashtbl.replace b.b_extents k (Array.of_list ext);
    k

and uf_slot b (u : Uf.t) =
  match Hashtbl.find_opt b.uids u.Uf.uid with
  | Some k -> k
  | None ->
    let k = Hashtbl.length b.uids in
    Hashtbl.replace b.uids u.Uf.uid k;
    b.b_ufs <- u :: b.b_ufs;
    k

(* The function is looked up before its arguments run, as in the
   walker.  Each call site owns its argument buffer: a site cannot be
   re-entered while its arguments are being evaluated. *)
and compile_uf b scope u args =
  let k = uf_slot b u in
  let name = u.Uf.uname in
  let lookup fr =
    let f = Array.unsafe_get fr.ufs k in
    if f == unbound_uf then fail "unbound uninterpreted function %s" name;
    f
  in
  match Array.of_list (List.map (fun a -> to_int (compile_expr b scope a)) args) with
  | [||] -> fun fr -> (lookup fr) [||]
  | [| a0 |] ->
    let buf = [| 0 |] in
    fun fr ->
      let f = lookup fr in
      buf.(0) <- a0 fr;
      f buf
  | args ->
    let buf = Array.make (Array.length args) 0 in
    fun fr ->
      let f = lookup fr in
      for i = 0 to Array.length args - 1 do
        buf.(i) <- args.(i) fr
      done;
      f buf

(* A tensor access.  [off] evaluates every index, left to right, and
   returns the flat offset — or -1 when [Shape.flatten_index] would
   reject the indices, having left them in [bad] so the caller can
   raise its message at the walker's point. *)
and access b scope (t : tensor) idx =
  let ixs = List.map (compile_index b scope) idx in
  let bad = Array.make (List.length ixs) 0 in
  let off =
    match ixs with
    | [ i ] ->
      let x = index_fn i in
      fun fr ts ->
        let i0 = x fr in
        if ts.rank = 1 && i0 >= 0 && i0 < ts.d0 then i0 else (bad.(0) <- i0; -1)
    | [ i; j ] ->
      let x = index_fn i and y = index_fn j in
      fun fr ts ->
        let i0 = x fr in
        rank2 bad ts i0 (y fr)
    | [ i; j; l ] ->
      let x = index_fn i and y = index_fn j and z = index_fn l in
      fun fr ts ->
        let i0 = x fr in
        let i1 = y fr in
        let i2 = z fr in
        if ts.rank = 3 && i0 >= 0 && i0 < ts.d0 && i1 >= 0 && i1 < ts.d1 && i2 >= 0 && i2 < ts.d2
        then (i0 * ts.s0) + (i1 * ts.s1) + i2
        else (bad.(0) <- i0; bad.(1) <- i1; bad.(2) <- i2; -1)
    | ixs ->
      let fs = Array.of_list (List.map index_fn ixs) in
      fun fr ts ->
        for n = 0 to Array.length fs - 1 do
          bad.(n) <- fs.(n) fr
        done;
        match Shape.flatten_index ts.shape bad with o -> o | exception Invalid_argument _ -> -1
  in
  let p, q = match ixs with [ Slot p; Slot q ] -> (p, q) | _ -> (-1, -1) in
  { k = tensor_slot b t; name = t.tname; p; q; off; bad }

and compile_load b scope t idx =
  let a = access b scope t idx in
  fun fr -> load a fr

let nop (_ : frame) = ()

let rec compile_stmt b scope s =
  match s with
  | For { v; extent; body; _ } ->
    let n = to_int (compile_expr b scope extent) in
    let slot = new_int b in
    let body = compile_stmt b ((v.Var.vid, BI slot) :: scope) body in
    fun fr ->
      let n = n fr in
      let ints = fr.ints in
      for i = 0 to n - 1 do
        Array.unsafe_set ints slot i;
        body fr
      done
  | Let (v, e, body) -> (
    match compile_expr b scope e with
    | I f ->
      let slot = new_int b in
      let body = compile_stmt b ((v.Var.vid, BI slot) :: scope) body in
      fun fr -> Array.unsafe_set fr.ints slot (f fr); body fr
    | F f ->
      let slot = new_flt b in
      let body = compile_stmt b ((v.Var.vid, BF slot) :: scope) body in
      fun fr -> Array.unsafe_set fr.flts slot (f fr); body fr
    | V f ->
      let slot = new_val b in
      let body = compile_stmt b ((v.Var.vid, BV slot) :: scope) body in
      fun fr -> Array.unsafe_set fr.vals slot (f fr); body fr)
  | Store (t, idx, Binop (Add, Load (t', idx'), e))
    when t'.tid = t.tid && idx' = idx
         && List.for_all (function Var _ | Int _ -> true | _ -> false) idx ->
    let a = access b scope t idx in
    let e = to_float (compile_expr b scope e) in
    fun fr -> accumulate a e fr
  | Store (t, idx, value) ->
    let a = access b scope t idx in
    let v = to_float (compile_expr b scope value) in
    fun fr -> store a v fr
  | If (c, a, d) -> (
    let c = to_int (compile_expr b scope c) in
    let a = compile_stmt b scope a in
    match d with
    | None -> fun fr -> if c fr <> 0 then a fr
    | Some d ->
      let d = compile_stmt b scope d in
      fun fr -> if c fr <> 0 then a fr else d fr)
  | Seq ss -> (
    let live = List.filter (function Barrier | Nop -> false | _ -> true) ss in
    match Array.of_list (List.map (compile_stmt b scope) live) with
    | [||] -> nop
    | [| f |] -> f
    | [| f; g |] -> fun fr -> f fr; g fr
    | fs ->
      fun fr ->
        for i = 0 to Array.length fs - 1 do
          (Array.unsafe_get fs i) fr
        done)
  | Barrier | Nop -> nop

let finish b ~kernels steps =
  let tensors = Array.of_list (List.rev b.b_tensors) in
  {
    ex_kernels = kernels;
    ex_ints = b.n_ints;
    ex_flts = b.n_flts;
    ex_vals = b.n_vals;
    ex_tensors = tensors;
    ex_extents = Array.init (Array.length tensors) (Hashtbl.find b.b_extents);
    ex_ufs = Array.of_list (List.rev b.b_ufs);
    ex_steps = steps;
  }

(* Steps follow [Ir.launch_groups]: a batch-major run binds each
   kernel's batch variable to a slot of its own. *)
let compile (p : program) =
  let b = builder () in
  let per_batch (bvar, body) =
    let slot = new_int b in
    (slot, compile_stmt b [ (bvar.Var.vid, BI slot) ] body)
  in
  let step = function
    | Single body -> Once (compile_stmt b [] body)
    | Batch_major run -> Batched (Array.of_list (List.map per_batch run))
  in
  finish b ~kernels:p.kernels (Array.of_list (List.map step (launch_groups p.kernels)))

let compiled_for ex (p : program) = ex.ex_kernels == p.kernels

let frame ex (ctx : context) =
  let slot (t : tensor) =
    let ts = unresolved () in
    Option.iter (fill ts) (Hashtbl.find_opt ctx.storage t.tid);
    ts
  in
  {
    ints = Array.make ex.ex_ints 0;
    flts = Array.make ex.ex_flts 0.0;
    vals = Array.make ex.ex_vals (Vi 0);
    tens = Array.map slot ex.ex_tensors;
    ufs =
      Array.map
        (fun (u : Uf.t) -> Option.value (Hashtbl.find_opt ctx.ufs u.Uf.uid) ~default:unbound_uf)
        ex.ex_ufs;
    ctx;
    tensors = ex.ex_tensors;
    extents = ex.ex_extents;
  }

let exec ex (ctx : context) =
  let fr = frame ex ctx in
  Array.iter
    (function
      | Once f -> f fr
      | Batched group ->
        for b = 0 to ctx.num_internal_batches - 1 do
          for i = 0 to Array.length group - 1 do
            let slot, f = group.(i) in
            fr.ints.(slot) <- b;
            f fr
          done
        done)
    ex.ex_steps

let run_program ctx p = exec (compile p) ctx

(* A tensor's first use outside a run: compile its extents alone and
   allocate it as a run would. *)
let get_tensor (ctx : context) (t : tensor) =
  match Hashtbl.find_opt ctx.storage t.tid with
  | Some s -> s
  | None ->
    let b = builder () in
    let k = tensor_slot b t in
    allocate (frame (finish b ~kernels:[] [||]) ctx) k;
    Hashtbl.find ctx.storage t.tid
