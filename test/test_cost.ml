(* Cross-validation of the static cost walker against dynamic counts:
   on the same compiled program and input, the multiplicative static
   walk must produce exactly the FLOP, load and store counts that
   executing the kernels produces.  The dynamic counts are the frozen
   tree walker's ([Exec_diff.reference]). *)

open Cortex
module M = Models.Common
module R = Interp_reference

(* The walker's counts and the static cost of one run of [spec]. *)
let run ~options (spec : M.t) ~seed ~batch =
  let compiled = Runtime.compile ~options:(Runtime.options_for ~base:options spec) spec.M.program in
  let lin = Linearizer.run (spec.M.dataset (Rng.create seed) ~batch) in
  let params = spec.M.init_params (Rng.create (seed + 1)) in
  let (failure, _), dynamic = Exec_diff.reference compiled lin ~params in
  Alcotest.(check (option string)) (spec.M.name ^ " runs") None failure;
  let r = Lower.resolve compiled lin in
  let cost =
    Cost.analyze ~uf:r.Lower.res_uf ~num_internal_batches:r.Lower.res_num_batch_launches
      compiled.Lower.prog
  in
  (dynamic, cost)

(* Elements moved: a per-segment byte count summed over the program. *)
let static_elems (cost : Cost.t) field =
  List.fold_left
    (fun acc (k : Cost.kernel_cost) ->
      List.fold_left (fun acc s -> acc +. field s) acc k.Cost.segments)
    0.0 cost.Cost.kernels
  /. float_of_int Cost.bytes_per_elem

let counts_agree ~options (spec : M.t) ~batch =
  let dynamic, cost = run ~options spec ~seed:31 ~batch in
  let all bytes = Array.fold_left ( +. ) 0.0 bytes in
  Alcotest.(check int)
    (spec.M.name ^ " flops")
    dynamic.R.flops (int_of_float (Cost.total_flops cost));
  Alcotest.(check int) (spec.M.name ^ " loads") dynamic.R.loads
    (int_of_float (static_elems cost (fun s -> all s.Cost.reads)));
  Alcotest.(check int) (spec.M.name ^ " stores") dynamic.R.stores
    (int_of_float (static_elems cost (fun s -> all s.Cost.writes)))

let small_specs =
  [
    ("TreeRNN", Models.Tree_rnn.spec ~vocab:30 ~hidden:6 ());
    ("TreeLSTM", Models.Tree_lstm.spec ~vocab:30 ~hidden:6 ());
    ("TreeGRU", Models.Tree_gru.spec ~vocab:30 ~hidden:6 ());
    ("TreeFC", Models.Tree_fc.spec ~height:4 ~vocab:30 ~hidden:6 ());
    ("MV-RNN", Models.Mv_rnn.spec ~vocab:10 ~hidden:4 ());
    ("DAG-RNN", Models.Dag_rnn.spec ~rows:4 ~cols:4 ~hidden:6 ());
  ]

let variants =
  [
    ("default", Lower.default);
    ("baseline", Lower.baseline);
    ("nospec", { Lower.default with Lower.specialize = false });
    ("nobatch", { Lower.default with Lower.dynamic_batch = false });
  ]

let test_one (_, spec) (_, options) () = counts_agree ~options spec ~batch:2

let test_per_space_counts () =
  (* On-chip vs off-chip split agrees too, for loads and for stores. *)
  let spec = Models.Tree_lstm.spec ~vocab:30 ~hidden:6 () in
  let dynamic, cost = run ~options:Lower.default spec ~seed:77 ~batch:2 in
  List.iter
    (fun space ->
      let si = Interp.space_index space in
      Alcotest.(check int)
        (Ir.space_name space ^ " loads")
        dynamic.R.loads_by_space.(si)
        (int_of_float (static_elems cost (fun s -> s.Cost.reads.(si))));
      Alcotest.(check int)
        (Ir.space_name space ^ " stores")
        dynamic.R.stores_by_space.(si)
        (int_of_float (static_elems cost (fun s -> s.Cost.writes.(si)))))
    [ Ir.Param; Ir.Global; Ir.Shared; Ir.Register ]

let () =
  Alcotest.run "cost"
    [
      ( "static-vs-dynamic",
        List.concat_map
          (fun model ->
            List.map
              (fun variant ->
                Alcotest.test_case
                  (fst model ^ "/" ^ fst variant)
                  `Quick (test_one model variant))
              variants)
          small_specs );
      ("per-space", [ Alcotest.test_case "TreeLSTM" `Quick test_per_space_counts ]);
    ]
