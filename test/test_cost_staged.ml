(* Differential test of the staged cost walk: [Cost.price] over
   [Cost.stage] must return exactly what the frozen unstaged walk
   ([Cost_reference.analyze]) returns — the same [Cost.t] bit for bit,
   list order included — or raise the same exception, across the model
   catalog x sizes x the options lattice x loop plans x random inputs. *)

open Cortex
module M = Models.Common
module Cost = Cortex_ilir.Cost

let models =
  [ "TreeFC"; "DAG-RNN"; "TreeGRU"; "TreeLSTM"; "MV-RNN"; "TreeRNN"; "SimpleTreeGRU";
    "NaryTreeLSTM"; "LSTM"; "GRU" ]

let outcome f = match f () with r -> Ok r | exception e -> Error e

(* Structural equality, and the same bits: [No_sharing] so two equal
   values marshal identically whatever their physical sharing. *)
let same a b =
  a = b
  && Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]

(* [uf] raising [exn] on its [k]-th call: both walks resolve the same
   UF calls in the same order, so they must fail at the same point — or,
   for a [Failure] a let swallows, carry on identically. *)
let failing_at uf k exn =
  let calls = ref 0 in
  fun u args ->
    incr calls;
    if !calls = k then raise exn else uf u args

let check_case ~what ~inject staged (applied : Lower.compiled) lin =
  let r = Lower.resolve applied lin in
  let compare_with make_uf ~label =
    let num_internal_batches = r.Lower.res_num_batch_launches in
    let expected =
      outcome (fun () ->
          Cost_reference.analyze ~uf:(make_uf ()) ~num_internal_batches applied.Lower.prog)
    in
    let got = outcome (fun () -> Cost.price staged ~uf:(make_uf ()) ~num_internal_batches) in
    if not (same expected got) then
      Alcotest.failf "%s%s: staged walk differs from the reference%s" what label
        (match (expected, got) with
         | Error e, _ | _, Error e -> " (" ^ Printexc.to_string e ^ ")"
         | Ok _, Ok _ -> "")
  in
  compare_with (fun () -> r.Lower.res_uf) ~label:"";
  if inject then begin
    let calls = ref 0 in
    let counting u args = incr calls; r.Lower.res_uf u args in
    ignore
      (Cost_reference.analyze ~uf:counting
         ~num_internal_batches:r.Lower.res_num_batch_launches applied.Lower.prog);
    List.iter
      (fun (k, exn) ->
        compare_with (fun () -> failing_at r.Lower.res_uf k exn)
          ~label:(Printf.sprintf " [call %d raises %s]" k (Printexc.to_string exn)))
      [ (1, Exit); (!calls / 3, Failure "injected"); (2 * !calls / 3, Not_found) ]
  end

let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let test_catalog size () =
  let cases = ref 0 in
  List.iter
    (fun name ->
      let spec = Models.Catalog.get name size in
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
                let staged = Cost.stage applied.Lower.prog in
                List.iteri
                  (fun i lin ->
                    incr cases;
                    check_case ~inject:(i = 0)
                      ~what:
                        (Printf.sprintf "%s %s | %s (%d nodes)" name label
                           (Schedule.plan_to_string plan) lin.Linearizer.num_nodes)
                      staged applied lin)
                  inputs)
            (take 6 (Tuner.loop_plans compiled)))
        (Tuner.candidates spec))
    models;
  Alcotest.(check bool) (Printf.sprintf "%d cases ran" !cases) true (!cases > 1000)

(* Hand-built corners the lowered models do not reach: a Register
   accumulation directly under a dynamic Serial loop (dependent only
   through the enclosing loop's kind), a zero-extent constant loop
   hiding a raising let, lets whose evaluation raises inside a
   multipliable run, a dynamically-sized Param, and barriers under a
   dynamic branch. *)
let test_corners () =
  let open Cortex_ilir.Ir in
  let d = Dim.fresh "d" in
  let n_uf = Uf.fresh "n" ~arity:0 and f_uf = Uf.fresh "f" ~arity:1 in
  let n = UfCall (n_uf, []) in
  let w = tensor ~space:Param "w" [ d ] [ Int 8 ] in
  let wd = tensor ~space:Param "wd" [ d ] [ n ] in
  let r = tensor ~space:Register "r" [ d ] [ Int 8 ] in
  let g = tensor ~space:Global "g" [ d ] [ n ] in
  let i = Var.fresh "i" and j = Var.fresh "j" and x = Var.fresh "x" and y = Var.fresh "y" in
  let acc = Store (r, [ Int 0 ], Binop (Add, Load (r, [ Int 0 ]), Load (w, [ Var j ]))) in
  let body =
    seq
      [
        (* dynamic Serial loop, multipliable body: direct Register store *)
        for_ ~kind:Serial i n (seq [ acc; Store (g, [ Var i ], Load (wd, [ Int 0 ])) ]);
        (* a constant loop of extent 0 never evaluates its let *)
        for_ ~kind:Vectorized j (Int 0) (Let (x, UfCall (f_uf, [ Int 99 ]), acc));
        (* raising lets whose values nothing reads *)
        for_ ~kind:Parallel i n
          (seq
             [
               Let (x, UfCall (f_uf, [ Var i ]), acc);
               for_ ~kind:Vectorized j (Int 4)
                 (Let (y, Binop (Div, Int 1, UfCall (f_uf, [ Binop (Add, Var j, Int 7) ])), acc));
             ]);
        for_ i n
          (If (Cmp (Lt, Var i, Int 2), seq [ Barrier; acc ], Some (Let (x, Var i, acc))));
      ]
  in
  let prog =
    {
      pname = "corners";
      params = [ w; wd ];
      inputs = [];
      temporaries = [ r; g ];
      outputs = [];
      kernels = [ { kname = "k"; launch = Once; body } ];
    }
  in
  let staged = Cost.stage prog in
  List.iter
    (fun (nodes, f) ->
      let uf u a = if Uf.equal u n_uf then nodes else f a.(0) in
      let expected =
        outcome (fun () -> Cost_reference.analyze ~uf ~num_internal_batches:0 prog)
      in
      let got = outcome (fun () -> Cost.price staged ~uf ~num_internal_batches:0) in
      Alcotest.(check bool)
        (Printf.sprintf "%d nodes: %s" nodes
           (match expected with Ok _ -> "priced" | Error e -> Printexc.to_string e))
        true (same expected got))
    [
      (3, fun a -> a);
      (0, fun a -> a);
      (3, fun a -> if a = 99 then raise Exit else a);
      (3, fun a -> if a = 0 then invalid_arg "f" else a);
      (3, fun a -> if a = 0 then failwith "f" else a);
      (3, fun a -> if a = 7 then 0 else a);
    ]

let () =
  Alcotest.run "cost-staged"
    [
      ( "differential",
        [
          Alcotest.test_case "catalog-small" `Quick (test_catalog Models.Catalog.Small);
          Alcotest.test_case "catalog-large" `Quick (test_catalog Models.Catalog.Large);
          Alcotest.test_case "corners" `Quick test_corners;
        ] );
    ]
