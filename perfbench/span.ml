(* Host-clock spans recorded around the benchmark's own calls into each
   layer's public functions.  Spans stay in memory and are written out
   once, when the benchmark ends. *)

type t = {
  id : int;
  name : string;  (** layer call, e.g. "lower.bind" *)
  start_us : float;
  stop_us : float;
  parent : int;  (** id of the enclosing span; -1 at top level *)
  window : int;  (** engine window (or tuner candidate) it replays; -1 if none *)
  alloc_bytes : float;  (** [Gc.allocated_bytes] delta over the span *)
}

let now_us () = Unix.gettimeofday () *. 1e6

(* Recording is switched on for the traced replay only; with it off,
   [with_span] is a plain call, which is what the overhead figure
   compares against. *)
let enabled = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let with_span ?(window = -1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let a0 = Gc.allocated_bytes () in
    let t0 = now_us () in
    let finish () =
      let t1 = now_us () in
      let a1 = Gc.allocated_bytes () in
      stack := List.tl !stack;
      recorded :=
        { id; name; start_us = t0; stop_us = t1; parent; window; alloc_bytes = a1 -. a0 }
        :: !recorded
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !recorded
let duration s = s.stop_us -. s.start_us
let named name = List.filter (fun s -> s.name = name) (all ())
let durations name = List.map duration (named name)
let total name = List.fold_left (fun acc s -> acc +. duration s) 0.0 (named name)

(* Chrome trace-event JSON ("X" complete events), loadable in
   chrome://tracing or Perfetto. *)
let write path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"window\":%d,\"alloc_bytes\":%.0f}}"
        s.name s.start_us (duration s) s.id s.parent s.window s.alloc_bytes)
    (all ());
  output_string oc "]}\n";
  close_out oc
