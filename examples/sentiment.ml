(* Sentiment classification over parse trees with a child-sum TreeLSTM
   (Tai et al. 2015) — the paper's flagship workload (Table 2).

     dune exec examples/sentiment.exe

   We embed a toy sentiment lexicon, run the stock TreeLSTM from the
   model zoo over a batch of parse trees through the compiled pipeline,
   and classify each sentence by a linear readout of the root hidden
   state.  A small hidden size keeps numerical interpretation instant;
   the same program compiles unchanged at h = 256 for the benchmarks. *)

open Cortex
module M = Models.Common

let hidden = 32
let vocab = 500

let () =
  let spec = Models.Tree_lstm.spec ~vocab ~hidden () in
  let engine = Engine.of_spec spec ~backend:Backend.gpu in

  (* A batch of "sentences" (random parse trees standing in for the
     Stanford Sentiment Treebank; see DESIGN.md on the substitution).
     Each sentence is its own request; the engine fuses the eight of
     them into one linearized forest. *)
  let rng = Rng.create 2026 in
  let sentences = List.init 8 (fun _ -> Gen.sst_tree rng ~vocab ()) in

  let params = spec.M.init_params (Rng.create 1) in
  let fx = Engine.execute engine ~params sentences in

  (* Linear readout: sentiment score = w . h_root. *)
  let w = Tensor.rand_uniform (Rng.create 5) [| hidden |] ~lo:(-1.0) ~hi:1.0 in
  List.iteri
    (fun i sentence ->
      let root = List.hd sentence.Structure.roots in
      let h = Engine.state fx ~request:i "h" root in
      let score = Tensor.dot w h in
      let label = if score >= 0.0 then "positive" else "negative" in
      Printf.printf "sentence %d (%2d words): score %+.4f -> %s\n" i
        (Structure.num_leaves sentence) score label)
    sentences;

  (* What the compiler did for this batch: *)
  let lin = (Engine.forest fx).Linearizer.lin in
  Printf.printf
    "\nlinearized %d nodes into %d dynamic batches (largest %d); leaf check is id >= %d\n"
    lin.Linearizer.num_nodes
    (Array.length lin.Linearizer.batches)
    (Array.fold_left (fun m (_, l) -> max m l) 0 lin.Linearizer.batches)
    lin.Linearizer.leaf_begin;
  let report =
    Runtime.simulate (Engine.compiled engine) ~backend:Backend.gpu (Structure.merge sentences)
  in
  Printf.printf
    "simulated V100: %.2f ms end-to-end in %d fused kernel launch(es) (%d barriers)\n"
    (Runtime.total_ms report)
    report.Runtime.latency.Backend.kernel_launches
    report.Runtime.latency.Backend.barriers
