(* A fixed, stdlib-only workload timed next to every measured repetition,
   so host times can be expressed in reference seconds.

   Host time on a shared VM drifts by tens of percent within a minute,
   far more than a regression bound, and neighbours slow
   pointer-chasing, allocation-heavy and cache-missing code more than
   streaming code.  So a sample times three loops: one with boxed-float
   lists, hashtable churn and float-array sweeps (like the binder and
   the cost walk); a miniature tree-walking interpreter (boxed values,
   association-list environments, hashtable-held tensors, like
   [Interp]); and a dependent-load chase through a 32 MB table, which
   slows as neighbours take the shared cache, as the big serving heaps
   do.  Nothing here calls the program, so a change to the program
   cannot move it. *)

let now = Unix.gettimeofday

let stdlib_loop () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for r = 0 to 3 do
    let l = List.init 100_000 (fun i -> float_of_int (i + r)) in
    acc := !acc +. List.fold_left (fun a x -> a +. (x *. 0.5)) 0.0 l;
    for i = 0 to 100_000 do
      Hashtbl.replace h (i land 8191) (float_of_int i)
    done;
    let a = Array.make 50_000 1.0 in
    for i = 1 to 49_999 do
      a.(i) <- (a.(i - 1) *. 0.999) +. 1.0
    done;
    acc := !acc +. a.(49_999)
  done;
  ignore (Sys.opaque_identity (!acc, h))

type value = I of int | F of float

type expr =
  | Const of float
  | Var of int
  | Load of int * expr list
  | Add of expr * expr
  | Mul of expr * expr
  | Tanh of expr

type stmt = For of int * int * stmt | Store of int * expr list * expr | Seq of stmt list

let as_int = function I n -> n | F f -> int_of_float f
let as_float = function F f -> f | I n -> float_of_int n

let offset tensors env t idx eval =
  let data, width = Hashtbl.find tensors t in
  let o = Array.of_list (List.map (fun i -> as_int (eval env i)) idx) in
  (data, (o.(0) * width) + o.(1))

let rec eval tensors env = function
  | Const f -> F f
  | Var v -> List.assoc v env
  | Load (t, idx) ->
    let data, o = offset tensors env t idx (eval tensors) in
    F data.(o)
  | Add (a, b) -> F (as_float (eval tensors env a) +. as_float (eval tensors env b))
  | Mul (a, b) -> F (as_float (eval tensors env a) *. as_float (eval tensors env b))
  | Tanh a -> F (tanh (as_float (eval tensors env a)))

let rec run tensors env = function
  | For (v, n, body) ->
    for i = 0 to n - 1 do
      run tensors ((v, I i) :: env) body
    done
  | Store (t, idx, e) ->
    let data, o = offset tensors env t idx (eval tensors) in
    data.(o) <- as_float (eval tensors env e)
  | Seq ss -> List.iter (run tensors env) ss

(* h[n][j] = tanh (sum_k w[j][k] * x[n][k] + 0.5) over 300 nodes at
   hidden 8, six times. *)
let interp_loop () =
  let nodes = 300 and hidden = 8 in
  let tensors = Hashtbl.create 16 in
  let w = 0 and x = 1 and acc = 2 and h = 3 and n = 1 and j = 2 and k = 3 in
  Hashtbl.replace tensors w (Array.init (hidden * hidden) (fun i -> float_of_int (i mod 7) *. 0.01), hidden);
  Hashtbl.replace tensors x (Array.init (nodes * hidden) (fun i -> float_of_int (i mod 5) *. 0.1), hidden);
  Hashtbl.replace tensors acc (Array.make (nodes * hidden) 0.0, hidden);
  Hashtbl.replace tensors h (Array.make (nodes * hidden) 0.0, hidden);
  let program =
    Seq
      [
        For
          ( n, nodes,
            For
              ( j, hidden,
                For
                  ( k, hidden,
                    Store
                      ( acc, [ Var n; Var j ],
                        Add (Load (acc, [ Var n; Var j ]), Mul (Load (w, [ Var j; Var k ]), Load (x, [ Var n; Var k ])))
                      ) ) ) );
        For (n, nodes, For (j, hidden, Store (h, [ Var n; Var j ], Tanh (Add (Load (acc, [ Var n; Var j ]), Const 0.5)))));
      ]
  in
  for _ = 1 to 6 do
    run tensors [ (97, I 0); (98, I 1); (99, I 2) ] program
  done;
  ignore (Sys.opaque_identity tensors)

(* A single cycle through 4M slots (a full-period linear congruential
   step), held outside the OCaml heap so it does not count in the
   benchmark's heap metric. *)
let table =
  lazy
    (let n = 4 * 1024 * 1024 in
     let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       t.{i} <- ((i * 1664525) + 1013904223) land (n - 1)
     done;
     t)

let chase_loop () =
  let t = Lazy.force table in
  let p = ref 0 and s = ref 0 in
  for _ = 1 to 600_000 do
    p := t.{!p};
    s := !s + !p
  done;
  ignore (Sys.opaque_identity !s)

(* Seconds one sample took. *)
let sample () =
  ignore (Lazy.force table);
  let t0 = now () in
  stdlib_loop ();
  interp_loop ();
  chase_loop ();
  now () -. t0

(* About what a sample takes on a quiet 2-vCPU Xeon VM: the reference
   second is defined by it. *)
let reference_s = 0.25

let all = ref []

let take () =
  let s = sample () in
  all := s :: !all;
  s

(* Factor turning host seconds measured between two samples into
   reference seconds. *)
let scale ~before ~after = reference_s /. ((before +. after) /. 2.0)
