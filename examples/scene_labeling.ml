(* Scene labeling with DAG-RNN (Shuai et al. 2015): recursive
   propagation over an image grid lowered to a DAG — the paper's
   DAG-structured workload.

     dune exec examples/scene_labeling.exe

   An "image" is an 8x8 grid of feature vectors; one south-east sweep of
   the DAG-RNN aggregates context from above and to the left of every
   cell.  We run the compiled sweep and label each cell by the argmax of
   a linear readout, printing the resulting label map.  DAGs make
   specialization pointless (a single leaf, §7.3) but dynamic batching
   still extracts anti-diagonal parallelism — both visible below. *)

open Cortex
module M = Models.Common

let rows = 8
let cols = 8
let hidden = 24
let classes = 4

let () =
  let spec = Models.Dag_rnn.spec ~rows ~cols ~hidden () in
  let engine = Engine.of_spec spec ~backend:Backend.gpu in
  let grid = Gen.grid_dag ~rows ~cols in
  let params = spec.M.init_params (Rng.create 11) in
  let fx = Engine.execute_one engine ~params grid in

  (* Readout per cell. *)
  let w = Tensor.rand_uniform (Rng.create 3) [| classes; hidden |] ~lo:(-1.0) ~hi:1.0 in
  let label_of node =
    let h = Engine.state fx "h" node in
    let scores = Tensor.matvec w h in
    let best = ref 0 in
    for c = 1 to classes - 1 do
      if Tensor.get scores [| c |] > Tensor.get scores [| !best |] then best := c
    done;
    !best
  in
  let glyphs = [| '.'; '#'; 'o'; '*' |] in
  print_endline "label map (one sweep of DAG-RNN context):";
  let by_payload = Hashtbl.create 64 in
  Array.iter
    (fun (n : Node.t) -> Hashtbl.replace by_payload n.Node.payload n)
    grid.Structure.nodes;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let node = Hashtbl.find by_payload ((i * cols) + j) in
      print_char glyphs.(label_of node)
    done;
    print_newline ()
  done;

  (* Dynamic batching on a DAG: anti-diagonals become the batches. *)
  let lin = Linearizer.run grid in
  Printf.printf "\n%d cells -> %d dynamic batches (anti-diagonals), widths:" (rows * cols)
    (Array.length lin.Linearizer.batches);
  Array.iter (fun (_, len) -> Printf.printf " %d" len) lin.Linearizer.batches;
  print_newline ();

  (* Specialization is a no-op for DAGs with one leaf (§7.3): *)
  let ms base =
    let compiled = Runtime.compile ~options:(Runtime.options_for ~base spec) spec.M.program in
    Runtime.total_ms (Runtime.simulate compiled ~backend:Backend.gpu grid)
  in
  Printf.printf "simulated V100: specialized %.3f ms vs unspecialized %.3f ms (expected ~equal)\n"
    (ms Lower.default)
    (ms { Lower.default with Lower.specialize = false })
