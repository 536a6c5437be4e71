(* Metrics, named checks and the result line the benchmark prints. *)

type clock = Host | Sim | Count

let clock_name = function Host -> "host" | Sim -> "sim" | Count -> "count"

type metric = { name : string; value : float; unit_ : string; clock : clock; note : string }

let metric ?(note = "") name clock unit_ value = { name; value; unit_; clock; note }

type check = {
  check : string;
  ok : bool;
  detail : string;
  known_defect : bool;
      (** a failure already diagnosed in the program and left visible on
          purpose: printed as FAIL, but not counted against [correct] *)
}

let check ?(known_defect = false) name ok detail = { check = name; ok; detail; known_defect }

type t = {
  end_to_end : metric list;
  per_layer : metric list;
  checks : check list;
  attempted : int;
  failed : int;
}

(* ---- statistics ---- *)

let percentile p = function [] -> 0.0 | xs -> Cortex.Stats.percentile p xs
let median xs = percentile 50.0 xs
let p99 xs = percentile 99.0 xs
let sum = List.fold_left ( +. ) 0.0
let safe_div a b = if b = 0.0 then 0.0 else a /. b

let geomean = function
  | [] -> 0.0
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* ---- output ---- *)

let print_metric m =
  Printf.printf "  %-34s %18.6f %-6s [%s]%s\n" m.name m.value m.unit_ (clock_name m.clock)
    (if m.note = "" then "" else "  " ^ m.note)

let print_check c =
  Printf.printf "  check %-28s %s  %s\n" c.check
    (if c.ok then "ok" else if c.known_defect then "FAIL (known defect)" else "FAIL")
    c.detail

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last line of standard output: one JSON object. *)
let print_result ~trace r =
  let shown = if trace then r.per_layer else r.end_to_end in
  Printf.printf "%s metrics:\n" (if trace then "per-layer" else "end-to-end");
  List.iter print_metric shown;
  Printf.printf "checks:\n";
  List.iter print_check r.checks;
  Printf.printf "  attempted %d, failed %d (failed_frac %.6f)\n" r.attempted r.failed
    (safe_div (float_of_int r.failed) (float_of_int r.attempted));
  let correct = List.for_all (fun c -> c.ok || c.known_defect) r.checks in
  let fields =
    List.map
      (fun m ->
        let v = if Float.is_finite m.value then m.value else -1.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number v) m.unit_)
      shown
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct r.attempted r.failed (String.concat ", " fields)
