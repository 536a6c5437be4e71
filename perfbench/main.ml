(* The repository's benchmark: end-to-end serving and tuning metrics on
   two clocks (the host wall clock and the simulated device clock), and
   a separate traced run that times each layer from outside.

     sh perfbench/run.sh \
       --workload sst-serve --seed 1 --seconds 12 --trace 0

   Every serving engine installs an empty fault spec (chaos mode), so
   the simulated clock never charges measured host time: every [sim]
   metric is a pure function of the seed.  The last line of standard
   output is one JSON object; perfbench/METRICS.md says what each
   metric means on each workload. *)

open Cortex
module M = Models.Common

let gpu = Backend.gpu
let out_dir = ".perfbench-out"
let now = Unix.gettimeofday

(* ---- workloads ---- *)

type workload = {
  setup : unit -> unit;  (** one full set-up: models, compile, parameters, engine *)
  tune_inputs : (string * M.t * Structure.t) list;  (** one dataset batch per model *)
  serve_rep : Tuning.search list -> Serving.run list;
      (** one repetition of the serving phase (given the search results) *)
  input : Serving.input;  (** what one serving run submits (session replays read it) *)
  latency_ids : int list option;  (** restrict sim latencies to these request ids *)
  ladder : Tuning.search list -> float * int;  (** max_rps_at_slo, rungs played *)
  params : (string -> Tensor.t) option;
  oracle : Serving.run list -> int * Report.check list;  (** wrong results, checks *)
  main_is_tuning : bool;  (** the --seconds loop repeats the search, not the serving *)
}

(* Inputs of a steady size.  Run-to-run spread across seeds should come
   from the shapes and payloads the seed draws, not from how much work
   happened to be drawn: [sized] takes the first draw (from seed-derived
   streams) whose every [features] value is within 2% of a
   seed-independent target, the median over 15 reference draws. *)
let sized ~features ~draw seed =
  let reference = List.init 15 (fun k -> features (draw (Rng.create (1_000_003 + k)))) in
  let target = List.mapi (fun i _ -> Report.median (List.map (fun f -> List.nth f i) reference))
      (List.hd reference) in
  let off x =
    List.fold_left2 (fun m v t -> Float.max m (Float.abs (v -. t) /. t)) 0.0 (features x) target
  in
  let rec pick attempt best =
    let x = draw (Rng.create ((seed * 7919) + attempt)) in
    let best = match best with Some b when off b <= off x -> b | _ -> x in
    if off best <= 0.02 || attempt >= 300 then best else pick (attempt + 1) (Some best)
  in
  pick 0 None

let levels s = float_of_int (Array.length (Linearizer.run s).Linearizer.batches)

(* One dataset batch of steady node count and depth (level count). *)
let dataset (spec : M.t) seed ~batch =
  sized
    ~features:(fun s -> [ float_of_int (Structure.num_nodes s); levels s ])
    ~draw:(fun rng -> spec.M.dataset rng ~batch)
    seed

(* Requests that arrive together are served in id order in windows of
   the default [max_batch]; a window's simulated time follows its
   deepest member.  Sum over those windows of the deepest member's
   level count. *)
let window_depth depths =
  let w = Engine.default_policy.Engine.max_batch in
  let rec go acc = function
    | [] -> acc
    | ds ->
      let chunk = List.filteri (fun i _ -> i < w) ds and rest = List.filteri (fun i _ -> i >= w) ds in
      go (acc +. List.fold_left Float.max 0.0 chunk) rest
  in
  go 0.0 depths

(* [n] single-structure requests of steady total size and depth, and
   steady depth per window (so the simulated makespan is steady too). *)
let requests (spec : M.t) seed n =
  sized
    ~features:(fun ss ->
      let depths = List.map levels ss in
      [ Report.sum (List.map (fun s -> float_of_int (Structure.num_nodes s)) ss); Report.sum depths;
        window_depth depths ])
    ~draw:(fun rng -> List.init n (fun _ -> spec.M.dataset rng ~batch:1))
    seed

let sst_gen (spec : M.t) rng = spec.M.dataset rng ~batch:1

let large name = Models.Catalog.get name Models.Catalog.Large
let evaluated_models = Models.Catalog.evaluated

let engine ~config spec () = Engine.of_spec ~config spec ~backend:gpu

let force_params (spec : M.t) params =
  List.iter (fun (name, _) -> ignore (params name)) spec.M.program.Ra.params

let plain input = { Serving.tokens = []; trace = input }

let no_oracle _ = (0, [])

(* Plain SST traffic on the workload's fleet; [base_rps] puts the
   ladder's 4.7x span around that fleet's capacity. *)
let ladder_of ~base_rps ~config spec ~seed _ =
  Serving.max_rps_at_slo ~base_rps ~make_engine:(engine ~config spec) ~gen:(sst_gen spec) ~seed

(* sst-serve: open-loop Poisson SST trees at 20k rps on 4 simulated
   GPUs, least-loaded dispatch, default 8/200us FIFO windows, Large
   TreeLSTM (h=512), pricing only. *)
let sst_fleet =
  Engine.Config.make ~faults:[] ~devices:(List.init 4 (fun _ -> gpu)) ~dispatch:Dispatch.Least_loaded ()

let sst_serve seed =
  let spec = large "TreeLSTM" in
  let config = sst_fleet in
  let trace =
    Trace.poisson ~deadline_us:2000.0 (Rng.create seed) ~rate_rps:20000.0 ~duration_ms:100.0
      ~gen:(sst_gen spec)
  in
  let input = plain trace in
  {
    setup = (fun () -> ignore (engine ~config (large "TreeLSTM") ()));
    tune_inputs = [ ("TreeLSTM", spec, dataset spec (seed + 7) ~batch:8) ];
    serve_rep = (fun _ -> [ Serving.serve ~make_engine:(engine ~config spec) input ]);
    input;
    latency_ids = None;
    ladder = ladder_of ~base_rps:15000.0 ~config spec ~seed;
    params = None;
    oracle = no_oracle;
    main_is_tuning = false;
  }

(* numeric-exec: numeric serving at hidden 8, every request arriving at
   once; each root output is checked against the hand-written
   reference model, never against the compiler's own interpreter. *)
let numeric_exec seed =
  let hidden = 8 in
  let spec = Models.Tree_lstm.spec ~hidden () in
  let params = spec.M.init_params (Rng.create (seed + 1)) in
  force_params spec params;
  let config = Engine.Config.make ~faults:[] ~params ~devices:[ gpu ] () in
  let structures = requests spec seed 64 in
  let trace = Trace.of_structures ~deadline_us:5000.0 structures in
  let input = plain trace in
  let oracle runs =
    let r = List.hd runs in
    let results = Hashtbl.create 64 in
    List.iter (fun (id, t) -> Hashtbl.replace results id t) r.Serving.summary.Engine.results;
    let wrong = ref 0 in
    Array.iteri
      (fun id (s : Structure.t) ->
        let want = fst (Models.Reference.tree_lstm ~params ~hidden ~with_x:true s (List.hd s.Structure.roots)) in
        match Hashtbl.find_opt results id with
        | Some got when Tensor.approx_equal ~tol:1e-9 want got -> ()
        | _ -> incr wrong)
      r.Serving.structures;
    ( !wrong,
      [
        Report.check "numeric_matches_reference" (!wrong = 0)
          (Printf.sprintf "%d of %d root outputs differ from Models.Reference.tree_lstm (tol 1e-9)"
             !wrong (Array.length r.Serving.structures));
      ] )
  in
  {
    setup =
      (fun () ->
        let spec = Models.Tree_lstm.spec ~hidden () in
        let params = spec.M.init_params (Rng.create (seed + 1)) in
        force_params spec params;
        ignore (engine ~config:(Engine.Config.make ~base:config ~params ()) spec ()));
    tune_inputs = [ ("TreeLSTM", spec, dataset spec (seed + 7) ~batch:8) ];
    serve_rep = (fun _ -> [ Serving.serve ~make_engine:(engine ~config spec) input ]);
    input;
    latency_ids = None;
    ladder = ladder_of ~base_rps:40000.0 ~config:(Engine.Config.make ~faults:[] ~devices:[ gpu ] ()) spec ~seed;
    params = Some params;
    oracle;
    main_is_tuning = false;
  }

(* chat-sessions: 32 concurrent growing conversations of 64 tokens,
   packed 16 at a time with a 300us pack wait, a session budget below
   the live working set (LRU spill and restore fire), and light
   background plain traffic (4k rps, about a quarter of the fleet), on
   2 simulated GPUs. *)
let session_budget = 80000

let chat_sessions seed =
  let spec = large "TreeLSTM" in
  let config =
    Engine.Config.make ~faults:[] ~devices:[ gpu; gpu ] ~session_budget_bytes:session_budget
      ~session_pack_window:16 ~session_pack_wait_us:300.0 ()
  in
  let span_us = 400_000.0 and per_session = 64 and deadline = 2000.0 in
  let trace =
    Trace.poisson ~deadline_us:deadline (Rng.create seed) ~rate_rps:4000.0
      ~duration_ms:(span_us /. 1000.0) ~gen:(sst_gen spec)
  in
  (* Payloads stay inside the embedding table: [Gen.grow_one] stamps
     internal nodes with [vocab], so vocab is the table extent minus 1. *)
  let vocab =
    match List.assoc_opt "Emb" spec.M.program.Ra.params with
    | Some (ext :: _) -> ext - 1
    | _ -> Gen.vocab_size
  in
  let tokens =
    List.concat
      (List.init 32 (fun i ->
           let rng = Rng.create (seed + (31 * i) + 1) in
           let g = Gen.growth_start rng ~vocab ~kind:spec.M.program.Ra.kind () in
           let first = Gen.growth_structure g in
           List.mapi
             (fun j s ->
               let at = (span_us *. float_of_int j /. float_of_int per_session) +. (7.0 *. float_of_int i) in
               { Serving.tk_session = Printf.sprintf "chat-%d" i; tk_at = at;
                 tk_deadline = Some (at +. deadline); tk_s = s })
             (first :: List.init per_session (fun _ -> Gen.grow_one rng g))))
  in
  (* Submissions must reach the engine in arrival order per session;
     across sessions the drain re-sorts by arrival. *)
  let input = { Serving.tokens; trace } in
  let oracle runs =
    let r = List.hd runs in
    let st = r.Serving.summary.Engine.session_table in
    let live = List.length r.Serving.summary.Engine.sessions in
    let ok = st.Session_store.st_bytes <= session_budget && st.Session_store.st_live = live in
    ( 0,
      [
        Report.check ~known_defect:true "session_budget_invariant" ok
          (Printf.sprintf
             "store accounts %d bytes against a %d-byte budget and %d live sessions; the \
              engine lists %d"
             st.Session_store.st_bytes session_budget st.Session_store.st_live live);
      ] )
  in
  {
    setup = (fun () -> ignore (engine ~config (large "TreeLSTM") ()));
    tune_inputs = [ ("TreeLSTM", spec, dataset spec (seed + 7) ~batch:8) ];
    serve_rep = (fun _ -> [ Serving.serve ~make_engine:(engine ~config spec) input ]);
    input;
    latency_ids = Some (List.init (List.length tokens) Fun.id);
    ladder = ladder_of ~base_rps:4000.0 ~config:(Engine.Config.make ~faults:[] ~devices:[ gpu; gpu ] ()) spec ~seed;
    params = None;
    oracle;
    main_is_tuning = false;
  }

(* zoo-tune: the offline two-level search for the five evaluated models
   at Large on the GPU backend, one dataset batch each; then each
   model's winning options serve a batch of its dataset (compile once,
   run many). *)
let zoo_tune seed =
  let models = List.map (fun name -> (name, large name)) evaluated_models in
  let tune_inputs =
    List.mapi (fun i (name, spec) -> (name, spec, dataset spec ((seed * 37) + i) ~batch:4)) models
  in
  let serve_batch = 64 in
  let config_for (s : Tuning.search) =
    Engine.Config.make ~faults:[] ~devices:[ gpu ] ~options:(Tuning.winner s).Tuner.pc_options ()
  in
  let traces =
    List.mapi
      (fun i (_, spec) ->
        Trace.of_structures ~deadline_us:20000.0
          (requests spec ((seed * 1013) + i) serve_batch))
      models
  in
  let serve_rep searches =
    List.map2
      (fun (s : Tuning.search) trace ->
        Serving.serve ~make_engine:(engine ~config:(config_for s) s.Tuning.spec) (plain trace))
      searches traces
  in
  (* The tuned TreeLSTM's capacity on the sst-serve fleet. *)
  let ladder searches =
    let s = List.find (fun (s : Tuning.search) -> s.Tuning.model = "TreeLSTM") searches in
    let config = Engine.Config.make ~base:sst_fleet ~options:(Tuning.winner s).Tuner.pc_options () in
    ladder_of ~base_rps:15000.0 ~config s.Tuning.spec ~seed searches
  in
  {
    setup =
      (fun () ->
        List.iter
          (fun name ->
            let spec = large name in
            ignore (Runtime.compile ~options:(Runtime.options_for spec) spec.M.program))
          evaluated_models);
    tune_inputs;
    serve_rep;
    input = plain [];
    latency_ids = None;
    ladder;
    params = None;
    oracle = no_oracle;
    main_is_tuning = true;
  }

let workloads =
  [ ("sst-serve", sst_serve); ("numeric-exec", numeric_exec);
    ("chat-sessions", chat_sessions); ("zoo-tune", zoo_tune) ]

(* ---- measuring a workload ---- *)

(* Host times are reported in reference seconds (see [Calibrate]): each
   measured stretch lies between two calibration samples and is scaled
   by their mean.  A metric is the median of the scaled stretches; the
   median of the raw ones is printed next to it. *)
let settle () =
  Gc.compact ();
  Calibrate.take ()

(* Full set-ups in batches of at least 0.1 s, each batch between two
   calibration samples, for [seconds] and at least 6 batches; the
   median time per set-up, (scaled, raw). *)
let setup_s ~seconds f =
  let batch () =
    let t0 = now () in
    let rec go n =
      f ();
      let t = now () -. t0 in
      if t >= 0.1 then t /. float_of_int n else go (n + 1)
    in
    go 1
  in
  let t0 = now () in
  let rec go scaled raw before n =
    if n >= 6 && now () -. t0 >= seconds then (Report.median scaled, Report.median raw)
    else begin
      let t = batch () in
      let after = settle () in
      go ((t *. Calibrate.scale ~before ~after) :: scaled) (t :: raw) after (n + 1)
    end
  in
  go [] [] (settle ()) 0

(* Run [f] until [seconds] of wall clock have passed and at least
   [min_reps] times.  Only the first result is kept whole (so the heap
   does not grow with the repetition count); each is summarized by
   [light] with its calibration scale.  Every repetition starts from a
   compacted heap, so one repetition's garbage is not collected on the
   next one's clock. *)
let repeat ~seconds ~min_reps ~light f =
  let t0 = now () in
  let before = settle () in
  let first = f () in
  let after = settle () in
  let rec go acc before n =
    if n >= min_reps && now () -. t0 >= seconds then List.rev acc
    else begin
      let v = f () in
      let after = settle () in
      go (light (Calibrate.scale ~before ~after) v :: acc) after (n + 1)
    end
  in
  (first, go [ light (Calibrate.scale ~before ~after) first ] after 1)

type serving_rep = {
  sv_wall : float;
  sv_scale : float;  (** calibration scale of this repetition *)
  sv_done : float;
  sv_makespan : float;
  sv_digest : string;
}

let light_serving scale runs =
  {
    sv_scale = scale;
    sv_wall = Report.sum (List.map (fun r -> r.Serving.wall_s) runs);
    sv_done = float_of_int (List.fold_left (fun a r -> a + Serving.completed r) 0 runs);
    sv_makespan = Report.sum (List.map Serving.makespan_s runs);
    sv_digest = String.concat "," (List.map (fun r -> Serving.sim_digest r.Serving.summary) runs);
  }

type tuning_rep = {
  tn_wall : float;
  tn_scale : float;  (** calibration scale of this repetition *)
  tn_models : (string * float) list;
  tn_digest : string;
}

let light_tuning scale searches =
  {
    tn_scale = scale;
    tn_wall = Report.sum (List.map (fun s -> s.Tuning.wall_s) searches);
    tn_models = List.map (fun s -> (s.Tuning.model, s.Tuning.wall_s)) searches;
    tn_digest = Tuning.sim_digest searches;
  }

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let same_seed name digests =
  let distinct = List.length (List.sort_uniq compare digests) in
  Report.check name (distinct = 1)
    (Printf.sprintf "%d same-seed repetitions, %d distinct simulated outcomes"
       (List.length digests) distinct)

(* Each request's window report must be the structure the benchmark
   submitted under that id (what the replay relies on). *)
let ids_mapped runs =
  let bad =
    List.fold_left
      (fun acc r ->
        List.fold_left
          (fun acc (q : Engine.request_report) ->
            if Structure.num_nodes r.Serving.structures.(q.Engine.rr_id) = q.Engine.rr_nodes then acc
            else acc + 1)
          acc r.Serving.summary.Engine.requests)
      0 runs
  in
  Report.check "request_ids_mapped" (bad = 0)
    (Printf.sprintf "%d completed requests whose node count differs from the submitted structure" bad)

let serving_checks w runs =
  let conservation =
    List.map Serving.conservation runs
  in
  Report.check "requests_conserved" (List.for_all fst conservation)
    (String.concat "; " (List.map snd conservation))
  :: ids_mapped runs
  :: snd (w.oracle runs)

let winners_feasible searches =
  let bad =
    List.filter
      (fun (s : Tuning.search) ->
        let c = Tuning.winner s in
        let applied =
          Lower.apply_plan c.Tuner.pc_plan (Runtime.compile ~options:c.Tuner.pc_options s.Tuning.spec.M.program)
        in
        let report = Runtime.simulate_lin applied ~backend:gpu (Linearizer.run s.Tuning.input) in
        not (Tuner.plan_feasible ~backend:gpu applied report))
      searches
  in
  Report.check "tuned_winners_feasible" (bad = [])
    (Printf.sprintf "%d of %d winning schedules fail the register/on-chip checks when re-applied"
       (List.length bad) (List.length searches))

let end_to_end ~setup ~serving ~tuning ~first_runs ~first_searches ~latency_ids ~heap ~max_rps =
  let lat = List.concat_map (fun r -> Serving.latencies ?only:latency_ids r) first_runs in
  let n = List.length lat in
  let on_time =
    List.fold_left (fun a r -> a + r.Serving.summary.Engine.slo.Engine.slo_on_time) 0 first_runs
  in
  let first = List.hd serving in
  let scaled_raw f g xs = (Report.median (List.map f xs), Report.median (List.map g xs)) in
  let raw v = Printf.sprintf "raw %.6g" v in
  let req_per_s, req_per_s_raw =
    scaled_raw
      (fun v -> Report.safe_div v.sv_done (v.sv_wall *. v.sv_scale))
      (fun v -> Report.safe_div v.sv_done v.sv_wall)
      serving
  and s_per_sim_s, s_per_sim_s_raw =
    scaled_raw
      (fun v -> Report.safe_div (v.sv_wall *. v.sv_scale) v.sv_makespan)
      (fun v -> Report.safe_div v.sv_wall v.sv_makespan)
      serving
  and tune, tune_raw = scaled_raw (fun t -> t.tn_wall *. t.tn_scale) (fun t -> t.tn_wall) tuning in
  let setup, setup_raw = setup in
  Report.
    [
      metric "setup_s" Host "s" setup ~note:(raw setup_raw);
      metric "host_req_per_s" Host "1/s" req_per_s ~note:(raw req_per_s_raw);
      metric "host_s_per_sim_s" Host "s/s" s_per_sim_s ~note:(raw s_per_sim_s_raw);
      metric "tune_s" Host "s" tune ~note:(raw tune_raw);
      metric "host_heap_mb" Host "MB" heap;
      metric "sim_p50_us" Sim "us" (median lat) ~note:(Printf.sprintf "n=%d" n);
      metric "sim_p99_us" Sim "us" (p99 lat) ~note:(Printf.sprintf "n=%d" n);
      metric "sim_goodput_rps" Sim "1/s" (safe_div (float_of_int on_time) first.sv_makespan);
      metric "max_rps_at_slo" Sim "1/s" max_rps;
      metric "tuned_sim_us_geomean" Sim "us"
        (geomean (List.map Tuning.winner_us first_searches))
        ~note:(Printf.sprintf "%d models" (List.length first_searches));
    ]

(* Per-layer metrics from the traced replay.  A share is the layer's
   span time over the traced replay's wall time [traced_us]. *)
let per_layer ~serving ~tuning ~first_runs ~first_searches ~traced_us ~overhead ~fidelity =
  let drain_us = 1e6 *. Report.median (List.map (fun v -> v.sv_wall) serving) in
  let tune_us = 1e6 *. Report.median (List.map (fun t -> t.tn_wall) tuning) in
  let spans = Span.all () in
  let parent_name = Hashtbl.create 1024 in
  List.iter (fun (s : Span.t) -> Hashtbl.replace parent_name s.Span.id s.Span.name) spans;
  let under parent name =
    List.filter
      (fun (s : Span.t) -> s.Span.name = name && Hashtbl.find_opt parent_name s.Span.parent = Some parent)
      spans
  in
  let durs name = Span.durations name in
  let total name = Span.total name in
  let share name = Report.safe_div (total name) traced_us in
  let p50_of name = Report.median (durs name) and p99_of name = Report.p99 (durs name) in
  let windows = List.concat_map (fun r -> r.Serving.summary.Engine.windows) first_runs in
  let plain =
    List.filter (fun (w : Engine.window_report) -> w.Engine.wr_session = None && w.Engine.wr_packed = []) windows
  in
  let nodes ws = Report.sum (List.map (fun (w : Engine.window_report) -> float_of_int w.Engine.wr_nodes) ws) in
  let lat f = Report.sum (List.map (fun (w : Engine.window_report) -> f w.Engine.wr_report.Runtime.latency) windows) in
  let lat_i f = lat (fun l -> float_of_int (f l)) in
  let window_layer_us =
    List.fold_left
      (fun a name -> a +. Report.sum (List.map Span.duration (under "window" name)))
      0.0
      [ "linearizer.run_forest"; "linearizer.rebind_forest"; "lower.bind"; "cost.analyze";
        "backend.simulate"; "interp.execute_lin" ]
  in
  let summaries = List.map (fun r -> r.Serving.summary) first_runs in
  let sumi f = float_of_int (List.fold_left (fun a s -> a + f s) 0 summaries) in
  let sumf f = Report.sum (List.map f summaries) in
  let num_windows = float_of_int (List.length windows) in
  let cache_hits = sumi (fun s -> s.Engine.cache.Shape_cache.hits)
  and cache_lookups = sumi (fun s -> s.Engine.cache.Shape_cache.hits + s.Engine.cache.Shape_cache.misses) in
  let devices = List.concat_map (fun s -> s.Engine.device_reports) summaries in
  let queue = List.concat_map (fun s -> List.map (fun (q : Engine.request_report) -> q.Engine.rr_queue_us) s.Engine.requests) summaries in
  let packed = sumi (fun s -> s.Engine.packed_windows) and packed_tokens = sumi (fun s -> s.Engine.packed_tokens) in
  let interp_nodes = if durs "interp.execute_lin" = [] then 0.0 else nodes plain in
  let feasible = List.fold_left (fun a s -> a + List.length s.Tuning.ranked) 0 first_searches in
  let options_points =
    List.fold_left (fun a s -> a + List.length (Tuner.candidates s.Tuning.spec)) 0 first_searches
  in
  let model_s name =
    Report.median
      (List.filter_map (fun t -> List.assoc_opt name t.tn_models) tuning)
  in
  let over_budget =
    sumi (fun s ->
        let st = s.Engine.session_table in
        match st.Session_store.st_budget_bytes with
        | Some b -> max 0 (st.Session_store.st_bytes - b)
        | None -> 0)
  in
  let replayed, mismatches, skipped = fidelity in
  Report.
    [
      metric "linearizer.calls" Count "count" (float_of_int (List.length (durs "linearizer.run_forest")));
      metric "linearizer.nodes" Count "count"
        (nodes (List.filter (fun (w : Engine.window_report) -> not w.Engine.wr_cache_hit) plain));
      metric "linearizer.us_p50" Host "us" (p50_of "linearizer.run_forest");
      metric "linearizer.us_p99" Host "us" (p99_of "linearizer.run_forest");
      metric "linearizer.share" Host "frac" (share "linearizer.run_forest");
      metric "linearizer.extend_us_p50" Host "us" (p50_of "linearizer.extend");
      metric "shape_cache.hit_rate" Count "frac" (safe_div cache_hits cache_lookups);
      metric "shape_cache.entries" Count "count" (sumi (fun s -> s.Engine.cache.Shape_cache.entries));
      metric "shape_cache.rebind_us_p50" Host "us" (p50_of "linearizer.rebind_forest");
      metric "lower.bind_us_p50" Host "us" (p50_of "lower.bind");
      metric "lower.bind_us_p99" Host "us" (p99_of "lower.bind");
      metric "lower.bind_alloc_bytes" Host "bytes"
        (median (List.map (fun (s : Span.t) -> s.Span.alloc_bytes) (Span.named "lower.bind")));
      metric "lower.bind_share" Host "frac" (share "lower.bind");
      metric "lower.lower_us" Host "us" (p50_of "lower.lower");
      metric "lower.apply_plan_us" Host "us" (p50_of "lower.apply_plan");
      metric "cost.analyze_us_p50" Host "us" (p50_of "cost.analyze");
      metric "cost.analyze_us_p99" Host "us" (p99_of "cost.analyze");
      metric "cost.share" Host "frac" (share "cost.analyze");
      metric "mem_plan.plan_us_p50" Host "us" (p50_of "mem_plan.plan");
      metric "backend.simulate_us_p50" Host "us" (p50_of "backend.simulate");
      metric "backend.launches" Sim "count" (lat_i (fun l -> l.Backend.kernel_launches));
      metric "backend.barriers" Sim "count" (lat_i (fun l -> l.Backend.barriers));
      metric "backend.launch_us" Sim "us" (lat (fun l -> l.Backend.launch_us));
      metric "backend.barrier_us" Sim "us" (lat (fun l -> l.Backend.barrier_us));
      metric "backend.compute_us" Sim "us" (lat (fun l -> l.Backend.compute_us));
      metric "backend.param_bytes" Sim "bytes" (lat (fun l -> l.Backend.param_traffic_bytes));
      metric "backend.global_bytes" Sim "bytes" (lat (fun l -> l.Backend.global_traffic_bytes));
      metric "backend.onchip_bytes" Sim "bytes" (lat (fun l -> l.Backend.onchip_traffic_bytes));
      metric "interp.calls" Count "count" (float_of_int (List.length (durs "interp.execute_lin")));
      metric "interp.us_per_node" Host "us" (safe_div (total "interp.execute_lin") interp_nodes);
      metric "interp.share" Host "frac" (share "interp.execute_lin");
      metric "tuner.candidates" Count "count" (float_of_int options_points);
      metric "tuner.feasible" Count "count" (float_of_int feasible);
      metric "tuner.us_per_candidate" Host "us" (safe_div tune_us (float_of_int feasible));
    ]
  @ List.map (fun name -> Report.metric ("tuner." ^ name ^ ".s") Host "s" (model_s name)) evaluated_models
  @ Report.
      [
        metric "dispatch.util_max" Sim "frac"
          (List.fold_left (fun a (d : Engine.device_report) -> Float.max a d.Engine.dr_utilization) 0.0 devices);
        metric "dispatch.occupancy_mean" Sim "frac"
          (safe_div (sum (List.map (fun (d : Engine.device_report) -> d.Engine.dr_occupancy) devices))
             (float_of_int (List.length devices)));
        metric "engine.self_us_per_window" Host "us"
          (safe_div (drain_us -. window_layer_us) num_windows)
          ~note:"drain wall minus replayed layer time";
        metric "engine.windows" Count "count" num_windows;
        metric "engine.mean_window" Count "count"
          (safe_div (sumf (fun s -> s.Engine.aggregate.Engine.mean_window *. float_of_int s.Engine.aggregate.Engine.num_windows)) num_windows);
        metric "engine.queue_us_p50" Sim "us" (median queue);
        metric "engine.queue_us_p99" Sim "us" (p99 queue);
        metric "engine.packed_windows" Count "count" packed;
        metric "engine.tokens_per_pack" Count "count" (safe_div packed_tokens packed);
        metric "session_store.evictions" Count "count" (sumi (fun s -> s.Engine.session_table.Session_store.st_evictions));
        metric "session_store.restores" Count "count" (sumi (fun s -> s.Engine.session_table.Session_store.st_restores));
        metric "session_store.spill_us" Sim "us" (sumf (fun s -> s.Engine.session_table.Session_store.st_spill_us));
        metric "session_store.restore_us" Sim "us" (sumf (fun s -> s.Engine.session_table.Session_store.st_restore_us));
        metric "session_store.over_budget_bytes" Count "bytes" over_budget;
        metric "calibration.loop_s" Host "s" (median !Calibrate.all);
        metric "trace.overhead_frac" Host "frac" overhead;
        metric "trace.replayed" Count "count" (float_of_int replayed);
        metric "trace.mismatches" Count "count" (float_of_int mismatches);
        metric "trace.skipped_windows" Count "count" (float_of_int skipped);
      ]

(* The traced replay: every plain window of the first serving
   repetition, every session's token deltas, and every candidate of the
   first search.  Returns (replayed, mismatched, skipped, numeric
   mismatches). *)
let replay_all ~params ~input ~first_runs ~first_searches () =
  let rps = List.map (Serving.replay_windows ?params) first_runs in
  Serving.replay_extends input;
  let cands = List.map Tuning.replay first_searches in
  let sumr f = List.fold_left (fun a r -> a + f r) 0 rps in
  let sumc f = List.fold_left (fun a c -> a + f c) 0 cands in
  ( sumr (fun r -> r.Serving.rp_windows) + sumc fst,
    sumr (fun r -> r.Serving.rp_mismatches) + sumc snd,
    sumr (fun r -> r.Serving.rp_skipped),
    sumr (fun r -> r.Serving.rp_numeric_mismatches) )

let run_workload w ~seconds ~trace ~seed ~name =
  let setup = if trace then (0.0, 0.0) else setup_s ~seconds:1.0 w.setup in
  let search () = List.map Tuning.search w.tune_inputs in
  (* The top heap is read right after the main phase. *)
  let (first_searches, tuning), (first_runs, serving), heap =
    if w.main_is_tuning then begin
      let ((fs, _) as t) = repeat ~seconds ~min_reps:2 ~light:light_tuning search in
      let heap = heap_mb () in
      (t, repeat ~seconds:(0.25 *. seconds) ~min_reps:5 ~light:light_serving (fun () -> w.serve_rep fs), heap)
    end
    else begin
      let ((fs, _) as t) = repeat ~seconds:(0.15 *. seconds) ~min_reps:7 ~light:light_tuning search in
      let s = repeat ~seconds ~min_reps:2 ~light:light_serving (fun () -> w.serve_rep fs) in
      (t, s, heap_mb ())
    end
  in
  Printf.printf "serving repetitions (s x calibration scale): %s\nsearch repetitions: %s\n"
    (String.concat " " (List.map (fun v -> Printf.sprintf "%.3fx%.2f" v.sv_wall v.sv_scale) serving))
    (String.concat " " (List.map (fun t -> Printf.sprintf "%.3fx%.2f" t.tn_wall t.tn_scale) tuning));
  List.iter
    (fun (s : Tuning.search) ->
      Printf.printf "tuned %-8s %4d nodes: %9.1f us  %s\n" s.Tuning.model
        (Structure.num_nodes s.Tuning.input) (Tuning.winner_us s)
        (Tuner.pc_full_label (Tuning.winner s)))
    first_searches;
  let wrong, _ = w.oracle first_runs in
  let checks =
    serving_checks w first_runs
    @ [
        same_seed "sim_deterministic_serving" (List.map (fun v -> v.sv_digest) serving);
        same_seed "sim_deterministic_tuning" (List.map (fun t -> t.tn_digest) tuning);
        winners_feasible first_searches;
      ]
  in
  let attempted = List.fold_left (fun a r -> a + r.Serving.submitted) 0 first_runs in
  let failed = wrong + List.fold_left (fun a r -> a + Serving.lost_shed_rejected r) 0 first_runs in
  if not trace then begin
    let max_rps, rungs = w.ladder first_searches in
    Printf.printf "ladder: %d rungs played\n" rungs;
    let e2e =
      end_to_end ~setup ~serving ~tuning ~first_runs ~first_searches ~latency_ids:w.latency_ids ~heap
        ~max_rps
    in
    { Report.end_to_end = e2e; per_layer = []; checks; attempted; failed }
  end
  else begin
    let replay () =
      replay_all ~params:w.params ~input:w.input ~first_runs ~first_searches ()
    in
    let t0 = now () in
    ignore (replay ());
    let untraced = now () -. t0 in
    Span.enabled := true;
    let t0 = now () in
    let replayed, mismatches, skipped, numeric = replay () in
    let traced = now () -. t0 in
    Span.enabled := false;
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    Span.write (Filename.concat out_dir (Printf.sprintf "%s-seed%d.trace.json" name seed));
    let fidelity =
      Report.check "replay_fidelity" (mismatches = 0)
        (Printf.sprintf
           "%d windows and candidates replayed, %d not reproduced exactly, %d session/packed \
            windows not reachable from outside"
           replayed mismatches skipped)
    in
    let numeric_check =
      Report.check "replay_numeric_bitwise" (numeric = 0)
        (Printf.sprintf "%d replayed root outputs differ bitwise from the engine's" numeric)
    in
    let layers =
      per_layer ~serving ~tuning ~first_runs ~first_searches ~traced_us:(1e6 *. traced)
        ~overhead:(Report.safe_div traced untraced -. 1.0)
        ~fidelity:(replayed, mismatches, skipped)
    in
    { Report.end_to_end = []; per_layer = layers; checks = checks @ [ fidelity; numeric_check ];
      attempted; failed }
  end

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some make ->
    let trace = !trace = 1 in
    let w = make !seed in
    let r =
      run_workload w ~seconds:(float_of_int !seconds) ~trace ~seed:!seed ~name:!workload
    in
    let shown = if trace then r.Report.per_layer else r.Report.end_to_end in
    let finite =
      Report.check "metrics_finite" (List.for_all (fun m -> Float.is_finite m.Report.value) shown)
        "every reported value is a finite number"
    in
    Printf.printf "workload %s, seed %d, %d s, trace %b\n" !workload !seed !seconds trace;
    Report.print_result ~trace { r with Report.checks = r.Report.checks @ [ finite ] }
