(* The offline two-level search ([Tuner.tune2]) and the traced replay of
   every candidate it returned. *)

open Cortex
module M = Models.Common

let plan_budget = 8

type search = {
  model : string;
  spec : M.t;
  input : Structure.t;  (** one dataset batch *)
  ranked : Tuner.plan_candidate list;
  wall_s : float;
}

let search (model, spec, input) =
  let t0 = Unix.gettimeofday () in
  let ranked = Tuner.tune2 ~plan_budget spec ~backend:Backend.gpu input in
  { model; spec; input; ranked; wall_s = Unix.gettimeofday () -. t0 }

let winner s = List.hd s.ranked
let winner_us s = (winner s).Tuner.pc_report.Runtime.latency.Backend.total_us

(* Same-seed searches must rank the same candidates at the same
   simulated prices. *)
let sim_digest searches =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.concat_map
             (fun s ->
               List.map
                 (fun c ->
                   Printf.sprintf "%s|%s|%h" s.model (Tuner.pc_full_label c)
                     c.Tuner.pc_report.Runtime.latency.Backend.total_us)
                 s.ranked)
             searches)))

(* Replay each returned candidate through [Lower.lower] ->
   [Lower.apply_plan] -> [Lower.bind] -> [Cost.analyze] ->
   [Backend.simulate] (the body of [Runtime.simulate_lin], called layer
   by layer so each gets its own span), and check its latency against
   the search's report.  Returns (candidates replayed, mismatches). *)
let replay s =
  let lin = Linearizer.run s.input in
  let backend = Backend.gpu in
  let mismatches = ref 0 in
  List.iteri
    (fun window (c : Tuner.plan_candidate) ->
      Span.with_span ~window "tuner.candidate" (fun () ->
          let compiled =
            Span.with_span ~window "lower.lower" (fun () ->
                Lower.lower ~options:c.Tuner.pc_options s.spec.M.program)
          in
          let applied =
            Span.with_span ~window "lower.apply_plan" (fun () ->
                Lower.apply_plan c.Tuner.pc_plan compiled)
          in
          let bound = Span.with_span ~window "lower.bind" (fun () -> Lower.bind applied lin) in
          let cost =
            Span.with_span ~window "cost.analyze" (fun () ->
                Cost.analyze ~uf:bound.Lower.uf_resolver
                  ~num_internal_batches:bound.Lower.num_batch_launches applied.Lower.prog)
          in
          let latency =
            Span.with_span ~window "backend.simulate" (fun () ->
                Backend.simulate backend ~persist:applied.Lower.options.Lower.persist
                  ~lock_free:false cost)
          in
          if latency <> c.Tuner.pc_report.Runtime.latency then incr mismatches))
    s.ranked;
  (List.length s.ranked, !mismatches)
