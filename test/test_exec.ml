(* Differential test of the closure-compiled executor: [Interp.exec]
   must produce what the frozen tree walker ([Interp_reference])
   produces — every state tensor bit for bit, or the same exception
   with the same message — across the model catalog x the options lattice x loop plans x random
   inputs, and on hand-built programs the lowered models never
   produce. *)

open Cortex
module M = Models.Common
module Ir = Cortex_ilir.Ir
module Interp = Cortex_ilir.Interp
module R = Interp_reference

let models =
  [ "TreeFC"; "DAG-RNN"; "TreeGRU"; "TreeLSTM"; "MV-RNN"; "TreeRNN"; "SimpleTreeGRU";
    "NaryTreeLSTM"; "LSTM"; "GRU" ]

(* The catalog's models at hidden 4: the same programs, options
   lattice and datasets as the Small size class, at a width the walker
   can execute hundreds of times in seconds. *)
let spec name =
  let hidden = 4 and vocab = 50 in
  match name with
  | "TreeFC" -> Models.Tree_fc.spec ~vocab ~hidden ()
  | "TreeRNN" -> Models.Tree_rnn.spec ~vocab ~hidden ()
  | "TreeLSTM" -> Models.Tree_lstm.spec ~vocab ~hidden ()
  | "NaryTreeLSTM" -> Models.Tree_lstm.nary_spec ~vocab ~hidden ()
  | "TreeGRU" -> Models.Tree_gru.spec ~vocab ~hidden ()
  | "SimpleTreeGRU" -> Models.Tree_gru.spec ~vocab ~simple:true ~hidden ()
  | "MV-RNN" -> Models.Mv_rnn.spec ~vocab ~hidden ()
  | "DAG-RNN" -> Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden ()
  | "LSTM" -> Models.Tree_lstm.spec ~vocab ~sequence:true ~seq_len:12 ~hidden ()
  | "GRU" -> Models.Tree_gru.spec ~vocab ~sequence:true ~seq_len:12 ~hidden ()
  | other -> invalid_arg other

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let test_catalog () =
  let cases = ref 0 in
  List.iter
    (fun name ->
      let spec = spec name in
      let params = spec.M.init_params (Rng.create 11) in
      let inputs =
        List.map
          (fun seed -> Linearizer.run (spec.M.dataset (Rng.create seed) ~batch:(1 + (seed mod 3))))
          [ 3; 4; 5 ]
      in
      List.iter
        (fun (label, options) ->
          let compiled = Runtime.compile ~options spec.M.program in
          List.iter
            (fun plan ->
              match Lower.apply_plan plan compiled with
              | exception Cortex_ilir.Schedule.Schedule_error _ -> ()
              | applied ->
                List.iter
                  (fun lin ->
                    incr cases;
                    match Exec_diff.check applied lin ~params with
                    | None -> ()
                    | Some diff ->
                      Alcotest.failf "%s %s | %s (%d nodes): %s" name label
                        (Cortex_ilir.Schedule.plan_to_string plan) lin.Linearizer.num_nodes diff)
                  inputs)
            (take 3 (Tuner.loop_plans compiled)))
        (Tuner.candidates spec))
    models;
  Alcotest.(check bool) (Printf.sprintf "%d cases ran" !cases) true (!cases > 500)

(* ---------- hand-built corners ---------- *)

open Ir

let d = Dim.fresh "d"
let n_uf = Uf.fresh "n" ~arity:0
let f_uf = Uf.fresh "f" ~arity:1
let missing_uf = Uf.fresh "missing" ~arity:1
let v4 = tensor "v" [ d ] [ Int 4 ]
let m23 = tensor "m" [ d; d ] [ Int 2; Int 3 ]
let out = tensor "out" [ d ] [ Int 4 ]
let lazy_t = tensor "lazy" [ d ] [ UfCall (n_uf, []) ]
let unsized = tensor "unsized" [ d ] [ UfCall (missing_uf, [ Int 0 ]) ]
let empty = tensor "empty" [ d ] [ Int 0 ]
let i = Var.fresh "i"
let j = Var.fresh "j"
let x = Var.fresh "x"

(* Run [body] as a one-kernel program on both interpreters, with [v]
   and [m] bound to fixed data and [n], [f] bound (never [missing]). *)
let run_corner ?(launch = Once) ?(batches = 0) body =
  let prog =
    {
      pname = "corner";
      params = [ v4; m23 ];
      inputs = [];
      temporaries = [ lazy_t ];
      outputs = [ out ];
      kernels = [ { kname = "k"; launch; body } ];
    }
  in
  let data () =
    ( Tensor.init [| 4 |] (fun a -> 0.5 +. float_of_int a.(0)),
      Tensor.init [| 2; 3 |] (fun a -> float_of_int ((10 * a.(0)) + a.(1)) /. 3.0) )
  in
  let f a = if a.(0) = 7 then 0 else a.(0) + 1 in
  let tensors = [ v4; m23; out; lazy_t ] in
  let reference =
    let ctx = R.create ~num_internal_batches:batches () in
    R.bind_uf0 ctx n_uf 3;
    R.bind_uf ctx f_uf f;
    let vd, md = data () in
    R.bind_tensor ctx v4 vd;
    R.bind_tensor ctx m23 md;
    let failure = Exec_diff.outcome (fun () -> R.run_program ctx prog) in
    (failure, List.map (fun t -> Exec_diff.bits (R.get_tensor ctx t)) tensors)
  in
  let executor =
    let ctx = Interp.create ~num_internal_batches:batches () in
    Interp.bind_uf ctx n_uf (fun _ -> 3);
    Interp.bind_uf ctx f_uf f;
    let vd, md = data () in
    Interp.bind_tensor ctx v4 vd;
    Interp.bind_tensor ctx m23 md;
    let failure = Exec_diff.outcome (fun () -> Interp.run_program ctx prog) in
    (failure, List.map (fun t -> Exec_diff.bits (Interp.get_tensor ctx t)) tensors)
  in
  (reference, executor)

let corner name ?launch ?batches ?expect body =
  Alcotest.test_case name `Quick (fun () ->
      let (failure, tensors), (got_failure, got_tensors) = run_corner ?launch ?batches body in
      Alcotest.(check (option string)) "same outcome" failure got_failure;
      Alcotest.(check bool) "same tensors" true (got_tensors = tensors);
      match expect with
      | None -> ()
      | Some msg ->
        Alcotest.(check string) "message" msg (Option.value failure ~default:"no exception"))

let store_out idx e = Store (out, [ idx ], e)
let err s = Printexc.to_string (Interp.Runtime_error s)

let oob op name i n dim =
  err
    (Printf.sprintf "%s %s: Shape.flatten_index: index %d out of [0,%d) at dim %d" op name i n
       dim)

let lt a c = Cmp (Lt, a, c)
let sigmoid e = Math (Cortex_tensor.Nonlinear.Sigmoid, e)

let corners =
  [
    corner "load out of bounds" ~expect:(oob "load" "v" 4 4 0)
      (for_ i (Int 5) (store_out (Int 0) (Load (v4, [ Var i ]))));
    corner "load negative index" ~expect:(oob "load" "v" (-1) 4 0)
      (store_out (Int 0) (Load (v4, [ Int (-1) ])));
    (* m[0, 3] is m's flat element 3: in range, but its dimension is
       not — with constant and with loop-variable indices. *)
    corner "load inner dim out of bounds" ~expect:(oob "load" "m" 3 3 1)
      (store_out (Int 0) (Load (m23, [ Int 0; Int 3 ])));
    corner "loop-indexed load out of bounds" ~expect:(oob "load" "m" 3 3 1)
      (for_ i (Int 1) (for_ j (Int 4) (store_out (Var j) (Load (m23, [ Var i; Var j ])))));
    corner "load rank mismatch" ~expect:(err "load m: Shape.flatten_index: rank 1 vs 2")
      (store_out (Int 0) (Load (m23, [ Int 1 ])));
    corner "store out of bounds" ~expect:(oob "store" "out" 4 4 0)
      (for_ i (Int 6) (store_out (Var i) (Flt 1.0)));
    (* A store evaluates its value before checking its indices. *)
    corner "store value before bounds" ~expect:(err "division by zero")
      (store_out (Int 9) (Binop (Div, Int 1, Int 0)));
    corner "store indices before value" ~expect:(err "mod by zero")
      (store_out (Binop (Mod, Int 1, Int 0)) (Var x));
    corner "division by zero" ~expect:(err "division by zero")
      (for_ i (Int 3)
         (store_out (Var i) (Binop (Div, Flt 1.0, Binop (Div, Int 2, Binop (Sub, Int 1, Var i))))));
    corner "mod by zero" ~expect:(err "mod by zero")
      (store_out (Int 0) (Binop (Mod, Int 5, Int 0)));
    corner "float division by zero" (store_out (Int 0) (Binop (Div, Flt 1.0, Flt 0.0)));
    corner "unbound function" ~expect:(err "unbound uninterpreted function missing")
      (store_out (Int 0) (Load (v4, [ UfCall (missing_uf, [ Binop (Div, Int 1, Int 0) ]) ])));
    corner "unbound variable" ~expect:(err "unbound variable x") (store_out (Int 0) (Var x));
    corner "function result as an index"
      (for_ i (Int 4) (store_out (UfCall (f_uf, [ Binop (Mul, Var i, Int 7) ])) (Var i)));
    (* The inner [i] shadows the outer; after the inner loop the outer
       binding is visible again. *)
    corner "shadowed loop variable"
      (for_ i (Int 2)
         (seq
            [
              for_ i (Int 4) (store_out (Var i) (Binop (Add, Load (out, [ Var i ]), Var i)));
              store_out (Var i) (Binop (Mul, Load (out, [ Var i ]), Flt 10.0));
            ]));
    corner "shadowed let" (Let (x, Flt 2.5, Let (x, Int 3, store_out (Var x) (Var x))));
    corner "mixed select"
      (for_ i (Int 4)
         (store_out (Var i)
            (Binop
               ( Add,
                 Select (lt (Var i) (Int 2), Int 1, Flt 0.25),
                 Select (Cmp (Ge, Var i, Int 3), Flt 0.5, Var i) ))));
    corner "mixed select as an index" ~expect:(err "expected int, got float 0.25")
      (for_ i (Int 4) (store_out (Select (lt (Var i) (Int 2), Var i, Flt 0.25)) (Flt 1.0)));
    corner "mixed select bound by a let"
      (for_ i (Int 4)
         (Let
            ( x,
              Select (lt (Var i) (Int 2), Var i, Load (v4, [ Var i ])),
              store_out (Var i) (Binop (Sub, Var x, Binop (Div, Var x, Int 3))) )));
    corner "mixed select in comparisons, math and calls"
      (for_ i (Int 4)
         (Let
            ( x,
              Select (lt (Var i) (Int 2), Var i, Flt 0.5),
              If
                ( Cmp (Gt, Var x, Flt 0.25),
                  store_out
                    (UfCall (f_uf, [ Select (Cmp (Eq, Var i, Int 0), Int 1, Var i) ]))
                    (sigmoid (Var x)),
                  Some
                    (for_ j (Select (lt (Var i) (Int 3), Int 2, Var i))
                       (store_out (Var j) (Var x))) ) )));
    corner "int use of a float" ~expect:(err "expected int, got float 1.5")
      (for_ i (Binop (Add, Int 1, Flt 0.5)) (store_out (Int 0) (Flt 1.0)));
    corner "float let used as an index" ~expect:(err "expected int, got float 2.5")
      (Let (x, Flt 2.5, store_out (Var x) (Flt 1.0)));
    corner "promotion"
      (seq
         [
           store_out (Int 0) (Binop (Div, Int 7, Flt 2.0));
           store_out (Int 1) (Binop (Div, Int 7, Int 2));
           store_out (Int 2) (Binop (Min, Flt (-0.0), Int 0));
           store_out (Int 3) (Binop (Mod, Load (v4, [ Int 3 ]), Int 2));
         ]);
    corner "float comparisons"
      (for_ i (Int 4)
         (If
            ( And (Cmp (Le, Load (v4, [ Var i ]), Int 2), Not (Cmp (Eq, Var i, Flt 1.0))),
              store_out (Var i) (Math (Cortex_tensor.Nonlinear.Tanh, Var i)),
              Some (store_out (Var i) (sigmoid (Load (m23, [ Int 1; Var i ])))) )));
    (* [Or] must not evaluate its right side when the left holds. *)
    corner "short circuit"
      (for_ i (Int 4)
         (If
            ( Or (lt (Var i) (Int 3), Cmp (Eq, Binop (Div, Int 1, Int 0), Int 0)),
              store_out (Var i) (Flt 1.0),
              None )));
    (* [t[i..] = t[i..] + e] shares one offset between its load and
       store: the load's failure is raised; an addend's failure leaves
       the cell unwritten. *)
    corner "accumulate out of bounds" ~expect:(oob "load" "m" 3 3 1)
      (for_ i (Int 2)
         (for_ j (Int 4)
            (Store (m23, [ Var i; Var j ], Binop (Add, Load (m23, [ Var i; Var j ]), Flt 1.0)))));
    corner "accumulate with a failing addend" ~expect:(oob "load" "v" 4 4 0)
      (for_ i (Int 4)
         (Store
            (out, [ Var i ], Binop (Add, Load (out, [ Var i ]), Load (v4, [ Binop (Add, Var i, Int 2) ])))));
    corner "accumulate an int at a constant index"
      (for_ i (Int 4) (Store (out, [ Int 1 ], Binop (Add, Load (out, [ Int 1 ]), Var i))));
    corner "two loads under a non-commutative operator"
      (seq
         [
           for_ i (Int 3) (store_out (Var i) (Binop (Sub, Load (v4, [ Var i ]), Load (m23, [ Int 1; Var i ]))));
           store_out (Int 3) (Binop (Div, Load (v4, [ Int 3 ]), Load (m23, [ Int 1; Int 2 ])));
         ]);
    (* The left operand runs first: its bounds failure wins. *)
    corner "evaluation order" ~expect:(oob "load" "v" 9 4 0)
      (store_out (Int 0) (Binop (Sub, Load (v4, [ Int 9 ]), Load (m23, [ Var x; Int 0 ]))));
    corner "unbound temporary allocated on first use"
      (for_ i (UfCall (n_uf, []))
         (seq
            [
              Store
                (lazy_t, [ Var i ], Binop (Add, Load (lazy_t, [ Var i ]), Load (v4, [ Var i ])));
              store_out (Var i) (Load (lazy_t, [ Var i ]));
            ]));
    (* An unbound tensor is allocated before its indices run. *)
    corner "allocation before indices" ~expect:(err "unbound uninterpreted function missing")
      (Store (unsized, [ Binop (Div, Int 1, Int 0) ], Flt 1.0));
    corner "zero-extent temporary"
      ~expect:(Printexc.to_string (Invalid_argument "Shape.validate: extent 0"))
      (store_out (Int 0) (Load (empty, [ Int 0 ])));
    corner "per-batch kernel" ~launch:(PerInternalBatch j) ~batches:3
      (store_out (Var j) (Binop (Add, Load (out, [ Var j ]), Var j)));
  ]

let () =
  Alcotest.run "exec"
    [
      ("differential", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
      ("corners", corners);
    ]
