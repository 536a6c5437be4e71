(* Serving runs, the SLO rate ladder, and the traced replay of a drain's
   plain windows through each layer's public functions. *)

open Cortex

(* One request the benchmark submits.  Session tokens go in through
   [Engine.submit ~session] before the plain trace runs, so request ids
   are: session tokens in submission order, then the trace's events. *)
type token = { tk_session : string; tk_at : float; tk_deadline : float option; tk_s : Structure.t }

type input = { tokens : token list; trace : Trace.t }

type run = {
  summary : Engine.summary;
  engine : Engine.t;
  wall_s : float;  (** host wall clock of the submissions and the drain *)
  structures : Structure.t array;  (** by request id *)
  submitted : int;
}

let submitted input = List.length input.tokens + Trace.length input.trace

let serve ~make_engine input =
  let engine = make_engine () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun tk ->
      ignore
        (Engine.submit_exn engine ~arrival_us:tk.tk_at ?deadline_us:tk.tk_deadline
           ~session:tk.tk_session tk.tk_s))
    input.tokens;
  let summary = Engine.run_trace engine input.trace in
  let wall_s = Unix.gettimeofday () -. t0 in
  let structures =
    Array.of_list
      (List.map (fun tk -> tk.tk_s) input.tokens
      @ List.map (fun (e : Trace.event) -> e.Trace.structure) input.trace)
  in
  { summary; engine; wall_s; structures; submitted = submitted input }

let makespan_s r = r.summary.Engine.aggregate.Engine.makespan_us /. 1e6
let completed r = r.summary.Engine.slo.Engine.slo_completed

(* completed + lost + shed + rejected must account for every submission. *)
let conservation r =
  let s = r.summary.Engine.slo and submitted = r.submitted in
  let sum = s.Engine.slo_completed + s.Engine.slo_lost + s.Engine.slo_shed + s.Engine.slo_rejected in
  (sum = submitted, Printf.sprintf "%d completed + %d lost + %d shed + %d rejected = %d of %d"
                      s.Engine.slo_completed s.Engine.slo_lost s.Engine.slo_shed
                      s.Engine.slo_rejected sum submitted)

let lost_shed_rejected r =
  let s = r.summary.Engine.slo in
  s.Engine.slo_lost + s.Engine.slo_shed + s.Engine.slo_rejected

(* Everything the simulated clock produced, for same-seed comparisons.
   Host-clock fields (none in chaos mode) are left out by construction. *)
let sim_digest (s : Engine.summary) =
  let b = Buffer.create 4096 in
  let f x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  let i x = Buffer.add_string b (string_of_int x ^ ";") in
  let a = s.Engine.aggregate in
  i a.Engine.num_requests; i a.Engine.num_windows; f a.Engine.makespan_us;
  f a.Engine.p50_us; f a.Engine.p99_us;
  let slo = s.Engine.slo in
  i slo.Engine.slo_completed; i slo.Engine.slo_lost; i slo.Engine.slo_on_time;
  f slo.Engine.slo_goodput_rps;
  List.iter
    (fun (r : Engine.request_report) ->
      i r.Engine.rr_id; i r.Engine.rr_window; i r.Engine.rr_device;
      f r.Engine.rr_queue_us; f r.Engine.rr_device_us; f r.Engine.rr_total_us)
    s.Engine.requests;
  List.iter
    (fun (w : Engine.window_report) ->
      i w.Engine.wr_index; i w.Engine.wr_size; i w.Engine.wr_device;
      f w.Engine.wr_report.Runtime.latency.Backend.total_us)
    s.Engine.windows;
  List.iter (fun (_, (t : Tensor.t)) -> Array.iter f t.Tensor.data) s.Engine.results;
  let st = s.Engine.session_table in
  i st.Session_store.st_bytes; i st.Session_store.st_evictions;
  i st.Session_store.st_restores; f st.Session_store.st_spill_us;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- simulated-clock metrics of one drain ---- *)

let latencies ?only r =
  let keep =
    match only with
    | None -> fun _ -> true
    | Some ids ->
      let h = Hashtbl.create 64 in
      List.iter (fun id -> Hashtbl.replace h id ()) ids;
      fun id -> Hashtbl.mem h id
  in
  List.filter_map
    (fun (q : Engine.request_report) ->
      if keep q.Engine.rr_id then Some q.Engine.rr_total_us else None)
    r.summary.Engine.requests

(* ---- the SLO rate ladder ---- *)

(* A fixed geometric ladder of offered rates, [base_rps * 1.025^k] for
   k < 64 (a span of 4.7x around the workload's capacity); each rung
   offers about [rung_requests] open-loop Poisson arrivals, stamped on
   the simulated clock (so generator lateness is zero by construction).
   A rung passes when p99 latency is within [limit_us], nothing is lost,
   shed or rejected, and the makespan ends within the trace span plus
   [slack_us] (no growing backlog).  The ladder is searched by
   bisection, assuming pass/fail is monotone in the rate. *)
let step = 1.025
let rungs = 64
let rung_requests = 3000
let limit_us = 2000.0
let slack_us = 2000.0

let rung_rate ~base_rps k = base_rps *. (step ** float_of_int k)

let rung_passes ~base_rps ~make_engine ~gen ~seed k =
  let rate = rung_rate ~base_rps k in
  let duration_ms = float_of_int rung_requests /. rate *. 1000.0 in
  let trace =
    Trace.poisson ~deadline_us:limit_us (Rng.create ((seed * 1009) + k)) ~rate_rps:rate
      ~duration_ms ~gen
  in
  let r = serve ~make_engine { tokens = []; trace } in
  let ok, _ = conservation r in
  ok
  && lost_shed_rejected r = 0
  && Report.p99 (latencies r) <= limit_us
  && r.summary.Engine.aggregate.Engine.makespan_us <= (duration_ms *. 1000.0) +. slack_us

(* Highest passing rung's rate, and how many rungs were played. *)
let max_rps_at_slo ~base_rps ~make_engine ~gen ~seed =
  let played = ref 0 in
  let passes k =
    incr played;
    rung_passes ~base_rps ~make_engine ~gen ~seed k
  in
  (* invariant: rung [lo] passes (or lo = -1), rung [hi] fails (or hi = rungs) *)
  let rec search lo hi =
    if hi - lo <= 1 then lo else
      let mid = (lo + hi) / 2 in
      if passes mid then search mid hi else search lo mid
  in
  let best = search (-1) rungs in
  ((if best < 0 then 0.0 else rung_rate ~base_rps best), !played)

(* ---- traced replay of plain windows ---- *)

type replay = {
  rp_windows : int;  (** plain windows replayed *)
  rp_mismatches : int;  (** windows whose replayed latency differs *)
  rp_numeric_mismatches : int;  (** replayed outputs that differ bitwise *)
  rp_skipped : int;  (** session and packed windows: not reachable from outside *)
}

(* Push each plain window the drain formed through
   [Linearizer.run_forest] (or [rebind_forest] on a shape-cache hit) ->
   [Lower.bind] -> [Cost.analyze] (with [Mem_plan.plan] timed on its
   own) -> [Backend.simulate], and through [Runtime.execute_lin] when
   serving numerically.  Membership comes from the summary's
   per-request window index. *)
let replay_windows ?params r =
  let s = r.summary in
  let compiled = Engine.compiled r.engine in
  let devices = Array.of_list (Engine.devices r.engine) in
  let max_children = compiled.Lower.ra.Ra.max_children in
  let members = Hashtbl.create 256 in
  List.iter
    (fun (q : Engine.request_report) ->
      Hashtbl.replace members q.Engine.rr_window
        (q :: Option.value ~default:[] (Hashtbl.find_opt members q.Engine.rr_window)))
    s.Engine.requests;
  let results = Hashtbl.create 64 in
  List.iter (fun (id, t) -> Hashtbl.replace results id t) s.Engine.results;
  let mismatches = ref 0 and numeric = ref 0 and replayed = ref 0 and skipped = ref 0 in
  List.iter
    (fun (w : Engine.window_report) ->
      if w.Engine.wr_session <> None || w.Engine.wr_packed <> [] then incr skipped
      else begin
        incr replayed;
        let window = w.Engine.wr_index in
        let qs =
          List.sort
            (fun (a : Engine.request_report) (b : Engine.request_report) ->
              compare (a.Engine.rr_arrival_us, a.Engine.rr_id) (b.Engine.rr_arrival_us, b.Engine.rr_id))
            (Option.value ~default:[] (Hashtbl.find_opt members window))
        in
        let structures = List.map (fun (q : Engine.request_report) -> r.structures.(q.Engine.rr_id)) qs in
        Span.with_span ~window "window" (fun () ->
            (* A shape-cache hit re-bound payloads into a cached
               numbering instead of linearizing; replay the same work. *)
            let forest =
              if w.Engine.wr_cache_hit then begin
                let cached = Linearizer.run_forest ~max_children structures in
                Span.with_span ~window "linearizer.rebind_forest" (fun () ->
                    Linearizer.rebind_forest cached structures)
              end
              else
                Span.with_span ~window "linearizer.run_forest" (fun () ->
                    Linearizer.run_forest ~max_children structures)
            in
            let lin = forest.Linearizer.lin in
            let bound = Span.with_span ~window "lower.bind" (fun () -> Lower.bind compiled lin) in
            let cost =
              Span.with_span ~window "cost.analyze" (fun () ->
                  Cost.analyze ~uf:bound.Lower.uf_resolver
                    ~num_internal_batches:bound.Lower.num_batch_launches compiled.Lower.prog)
            in
            ignore
              (Span.with_span ~window "mem_plan.plan" (fun () ->
                   Mem_plan.plan ~bytes_per_elem:Cost.bytes_per_elem
                     ~spaces:[ Ir.Shared; Ir.Register ] compiled.Lower.prog));
            let latency =
              Span.with_span ~window "backend.simulate" (fun () ->
                  Backend.simulate devices.(w.Engine.wr_device)
                    ~persist:compiled.Lower.options.Lower.persist ~lock_free:false cost)
            in
            if latency <> w.Engine.wr_report.Runtime.latency
               || lin.Linearizer.num_nodes <> w.Engine.wr_nodes
            then incr mismatches;
            match params with
            | None -> ()
            | Some params ->
              let ex =
                Span.with_span ~window "interp.execute_lin" (fun () ->
                    Runtime.execute_lin compiled ~params lin)
              in
              let out = List.hd compiled.Lower.ra.Ra.outputs in
              List.iteri
                (fun k (q : Engine.request_report) ->
                  match r.structures.(q.Engine.rr_id).Structure.roots with
                  | [] -> ()
                  | root :: _ ->
                    let v =
                      Lower.state_value_lin ex.Runtime.exec_bound ex.Runtime.exec_compiled out
                        forest.Linearizer.spans.(k).Linearizer.span_ids.(root.Node.id)
                    in
                    (match Hashtbl.find_opt results q.Engine.rr_id with
                     | Some t when t.Tensor.data = v.Tensor.data -> ()
                     | _ -> incr numeric))
                qs)
      end)
    s.Engine.windows;
  { rp_windows = !replayed; rp_mismatches = !mismatches; rp_numeric_mismatches = !numeric;
    rp_skipped = !skipped }

(* Replay each session's token deltas through [Linearizer.extend],
   starting from a cold linearization of its first token — the
   incremental inspector work a conversation needs, timed per call. *)
let replay_extends input =
  let by_session = Hashtbl.create 32 in
  List.iter
    (fun tk ->
      Hashtbl.replace by_session tk.tk_session
        (tk.tk_s :: Option.value ~default:[] (Hashtbl.find_opt by_session tk.tk_session)))
    input.tokens;
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_session []) in
  List.iter
    (fun name ->
      match List.rev (Hashtbl.find by_session name) with
      | [] -> ()
      | first :: rest ->
        let forest = ref (Linearizer.run_forest [ first ]) in
        let prev = ref first in
        List.iter
          (fun (s : Structure.t) ->
            let old_n = Structure.num_nodes !prev in
            let delta =
              { Linearizer.d_request = 0; d_roots = s.Structure.roots;
                d_nodes = Array.sub s.Structure.nodes old_n (Structure.num_nodes s - old_n) }
            in
            forest := Span.with_span "linearizer.extend" (fun () -> Linearizer.extend !forest delta);
            prev := s)
          rest)
    names
