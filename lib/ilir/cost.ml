open Ir
module Nonlinear = Cortex_tensor.Nonlinear

let bytes_per_elem = 4

type segment = {
  flops : float;
  dep_flops : float;
      (* subset of [flops] issued on a loop-carried dependency chain: a
         reduction accumulating into a Register temporary under a Serial
         loop.  Backends price these at their serial issue rate unless a
         schedule binds the loop onto lanes. *)
  reads : float array;
  writes : float array;
  lanes : float;
  param_footprint : float;
  param_raw : (int * float) list;
      (* per Param-tensor raw read bytes in this segment, by tensor id *)
}

type kernel_cost = { kname : string; launches : int; segments : segment list }

type t = {
  kernels : kernel_cost list;
  param_total_bytes : float;
  param_sizes : (int * float) list;  (* bytes per Param tensor id *)
  barrier_count : int;
  onchip_peak_bytes : float;  (* Shared/Register temporary footprint *)
  onchip_planned_bytes : float;  (* same buffers, liveness-packed (Mem_plan) *)
}

(* ---------- integer evaluation of extents and conditions ----------
   Control flow in lowered recursive models never depends on tensor
   data (property P.1), so extents and conditions evaluate with UFs and
   loop variables alone.  Each expression the walk evaluates is
   compiled once, at staging, into a closure over the UF resolver and
   the environment (loop variables and lets, by id, innermost first).
   Operands evaluate in the order a direct interpreter would, so a
   failing input raises the same exception at the same point. *)

type ieval = (Uf.t -> int array -> int) -> (int * int) list -> int

let rec lookup (vid : int) = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if k = vid then v else lookup vid rest

let rec compile_int e : ieval =
  match e with
  | Int n -> fun _ _ -> n
  | Var v ->
    let vid = v.Var.vid and name = v.Var.vname in
    fun _ env ->
      (try lookup vid env with Not_found -> failwith ("Cost.eval_int: unbound " ^ name))
  | Binop (op, a, b) ->
    let a = compile_int a and b = compile_int b in
    let f : int -> int -> int =
      match op with
      | Add -> ( + )
      | Sub -> ( - )
      | Mul -> ( * )
      | Div -> ( / )
      | Mod -> ( mod )
      | Min -> min
      | Max -> max
    in
    fun uf env ->
      let x = a uf env in
      let y = b uf env in
      f x y
  | Cmp (op, a, b) ->
    let a = compile_int a and b = compile_int b in
    let f : int -> int -> bool =
      match op with
      | Lt -> ( < )
      | Le -> ( <= )
      | Gt -> ( > )
      | Ge -> ( >= )
      | Eq -> ( = )
      | Ne -> ( <> )
    in
    fun uf env ->
      let x = a uf env in
      let y = b uf env in
      if f x y then 1 else 0
  | And (a, b) ->
    let a = compile_int a and b = compile_int b in
    fun uf env -> if a uf env <> 0 && b uf env <> 0 then 1 else 0
  | Or (a, b) ->
    let a = compile_int a and b = compile_int b in
    fun uf env -> if a uf env <> 0 || b uf env <> 0 then 1 else 0
  | Not a ->
    let a = compile_int a in
    fun uf env -> if a uf env = 0 then 1 else 0
  | Select (c, a, b) ->
    let c = compile_int c and a = compile_int a and b = compile_int b in
    fun uf env -> if c uf env <> 0 then a uf env else b uf env
  | UfCall (u, []) -> fun uf _ -> uf u [||]
  | UfCall (u, [ a ]) ->
    let a = compile_int a in
    fun uf env -> uf u [| a uf env |]
  | UfCall (u, args) ->
    let args = Array.of_list (List.map compile_int args) in
    fun uf env -> uf u (Array.map (fun a -> a uf env) args)
  | Flt _ | Load _ | Math _ ->
    fun _ _ -> failwith "Cost.eval_int: data-dependent control flow"

(* A let's value, where the walk only needs it for control flow below:
   data-dependent or unbound expressions bind a dummy 0. *)
let eval_let (e : ieval) uf env = try e uf env with Failure _ -> 0

(* ---------- float-valuedness (to charge FLOPs only for tensor math) *)

let rec is_float = function
  | Flt _ | Load _ | Math _ -> true
  | Int _ | Var _ | UfCall _ | Cmp _ | And _ | Or _ | Not _ -> false
  | Binop (_, a, b) -> is_float a || is_float b
  | Select (_, a, b) -> is_float a || is_float b

(* A statement can be counted multiplicatively when executing it the
   same number of times with different loop-variable values cannot
   change the counts: no branches, no barriers, and only
   constant-extent inner loops. *)
let rec multipliable = function
  | Store _ | Nop -> true
  | Let (_, _, body) -> multipliable body
  | Seq ss -> List.for_all multipliable ss
  | For { extent = Int _; body; _ } -> multipliable body
  | For _ | If _ | Barrier -> false

(* Vectorized (feature) lanes of one operator instance cap at a thread
   block's worth of threads; parallel (node) lanes do not. *)
let vec_lane_cap = 512.0

(* ---------- staging: static per-unit counts ----------

   Everything the walk adds for a multipliable run of statements is a
   fixed per-unit count scaled by the enclosing multiplicity, so it is
   counted once per program.  Every count is an integer-valued float
   far below 2^53, so [mult *. (a +. b)] equals [mult *. a +. mult *. b]
   bit for bit and regrouping the walk's sums is exact. *)

(* Lets (and the dummy 0 bindings of loop variables) a run must still
   evaluate per execution: a let's value does not change the run's
   counts, but evaluating it can raise (a UF call out of range, a
   division by zero), and the walk raises exactly where the unstaged
   walk did.  Scopes are kept, so each let sees the bindings it saw. *)
type probe = Probe of int * ieval option * probe list

type counts = {
  c_flops : float;
  c_dep : float;  (* dependent FLOPs under a Serial loop inside the run *)
  c_dep_outer : float;
      (* Register-store FLOPs outside every loop of the run: dependent
         iff the run's enclosing loop is Serial *)
  c_traffic : (int * float) array;
      (* nonzero bytes: index [s] reads space [s], [4 + s] writes it *)
  c_param_raw : (int * float) array;  (* Param bytes by slot, first encounter first *)
  c_lanes : (float * float) array;
      (* (parallel, vector) lane factors of the run's statements, none
         dominated by another; the run's own (1, 1) is noted on entry *)
  c_probes : probe list;
}

(* Param tids get dense slots, numbered in the order staging meets them. *)
type slots = { slot_of : (int, int) Hashtbl.t; mutable tids_rev : int list }

type builder = {
  b_slots : slots;
  mutable b_flops : float;
  mutable b_dep : float;
  mutable b_dep_outer : float;
  b_reads : float array;
  b_writes : float array;
  mutable b_param_raw : (int * float ref) list;  (* by slot, newest first *)
  mutable b_lanes : (float * float) list;
}

let builder b_slots =
  {
    b_slots;
    b_flops = 0.0;
    b_dep = 0.0;
    b_dep_outer = 0.0;
    b_reads = Array.make 4 0.0;
    b_writes = Array.make 4 0.0;
    b_param_raw = [];
    b_lanes = [];
  }

let rec stage_expr b k e =
  match e with
  | Int _ | Flt _ | Var _ -> ()
  | Binop (_, x, y) ->
    if is_float e then b.b_flops <- b.b_flops +. k;
    stage_expr b k x;
    stage_expr b k y
  | Cmp (_, x, y) ->
    if is_float x || is_float y then b.b_flops <- b.b_flops +. k;
    stage_expr b k x;
    stage_expr b k y
  | And (x, y) | Or (x, y) ->
    stage_expr b k x;
    stage_expr b k y
  | Not x -> stage_expr b k x
  | Select (c, x, y) ->
    if is_float e then b.b_flops <- b.b_flops +. k;
    stage_expr b k c;
    stage_expr b k x;
    stage_expr b k y
  | Load (t, idx) ->
    let s = Interp.space_index t.space in
    let bytes = k *. float_of_int bytes_per_elem in
    b.b_reads.(s) <- b.b_reads.(s) +. bytes;
    if t.space = Param then begin
      let slot =
        match Hashtbl.find_opt b.b_slots.slot_of t.tid with
        | Some slot -> slot
        | None ->
          let slot = Hashtbl.length b.b_slots.slot_of in
          Hashtbl.replace b.b_slots.slot_of t.tid slot;
          b.b_slots.tids_rev <- t.tid :: b.b_slots.tids_rev;
          slot
      in
      match List.assoc_opt slot b.b_param_raw with
      | Some r -> r := !r +. bytes
      | None -> b.b_param_raw <- (slot, ref bytes) :: b.b_param_raw
    end;
    List.iter (stage_expr b k) idx
  | UfCall (_, args) -> List.iter (stage_expr b k) args
  | Math (m, x) ->
    b.b_flops <- b.b_flops +. (k *. float_of_int (Nonlinear.flops m));
    stage_expr b k x

(* Only UF calls and integer division can raise anything but the
   [Failure] a let swallows. *)
let rec may_raise = function
  | UfCall _ | Binop ((Div | Mod), _, _) -> true
  | Int _ | Flt _ | Var _ -> false
  | Binop (_, x, y) | Cmp (_, x, y) | And (x, y) | Or (x, y) -> may_raise x || may_raise y
  | Not x | Math (_, x) -> may_raise x
  | Select (c, x, y) -> may_raise c || may_raise x || may_raise y
  | Load (_, idx) -> List.exists may_raise idx

(* Stage one multipliable statement executed [k] times per unit, with
   lane factors [(p, v)] and [inner] the kind of the innermost loop of
   the run around it ([None] outside all of them).  Returns the probes
   it needs; subtrees that cannot raise are dropped. *)
let rec stage_run b k (p, v) inner s =
  b.b_lanes <- (p, v) :: b.b_lanes;
  match s with
  | Nop -> []
  | Seq ss -> List.concat_map (stage_run b k (p, v) inner) ss
  | Let (x, e, body) ->
    stage_expr b k e;
    let kids = stage_run b k (p, v) inner body in
    if kids = [] && not (may_raise e) then []
    else [ Probe (x.Var.vid, Some (compile_int e), kids) ]
  | Store (t, idx, value) ->
    let sp = Interp.space_index t.space in
    b.b_writes.(sp) <- b.b_writes.(sp) +. (k *. float_of_int bytes_per_elem);
    List.iter (stage_expr b k) idx;
    let before = b.b_flops in
    stage_expr b k value;
    if t.space = Register then begin
      match inner with
      | Some Serial -> b.b_dep <- b.b_dep +. (b.b_flops -. before)
      | None -> b.b_dep_outer <- b.b_dep_outer +. (b.b_flops -. before)
      | Some (Parallel | Vectorized | Unrolled) -> ()
    end;
    []
  | For { v = x; extent = Int n; kind; body; _ } ->
    if n <= 0 then []
    else begin
      let f = float_of_int n in
      let lanes =
        match kind with
        | Parallel -> (p *. f, v)
        | Vectorized -> (p, v *. f)
        | Serial | Unrolled -> (p, v)
      in
      match stage_run b (k *. f) lanes (Some kind) body with
      | [] -> []
      | kids -> [ Probe (x.Var.vid, None, kids) ]
    end
  | For _ | If _ | Barrier -> invalid_arg "Cost.stage_run: not multipliable"

let counts_of b probes =
  let lanes = List.sort_uniq compare b.b_lanes in
  let dominated (p, v) =
    List.exists (fun (p', v') -> p' >= p && v' >= v && (p', v') <> (p, v)) lanes
  in
  {
    c_flops = b.b_flops;
    c_dep = b.b_dep;
    c_dep_outer = b.b_dep_outer;
    c_traffic =
      Array.of_list
        (List.filter
           (fun (_, bytes) -> bytes <> 0.0)
           (List.init 8 (fun i ->
                (i, if i < 4 then b.b_reads.(i) else b.b_writes.(i - 4)))));
    c_param_raw = Array.of_list (List.rev_map (fun (tid, r) -> (tid, !r)) b.b_param_raw);
    c_lanes =
      Array.of_list (List.filter (fun l -> l <> (1.0, 1.0) && not (dominated l)) lanes);
    c_probes = probes;
  }

let expr_counts slots e =
  let b = builder slots in
  stage_expr b 1.0 e;
  counts_of b []

(* The dynamic skeleton left after staging: only what depends on the
   linearized input — extents, conditions, lets — and the barriers. *)
type node =
  | Run of counts  (* a maximal run of multipliable statements *)
  | Block of node list
  | Bind of int * ieval * counts * node  (* counts: the bound expression's *)
  | Branch of ieval * counts * node * node option
  | Loop of { vid : int; extent : ieval; kind : loop_kind; rolled : bool; body : node }
      (* [rolled]: the body is one [Run], counted once and scaled by the
         trip count *)
  | Sync

let run_of slots ss =
  let b = builder slots in
  let probes = List.concat_map (stage_run b 1.0 (1.0, 1.0) None) ss in
  Run (counts_of b probes)

let rec stage_node slots s =
  if multipliable s then run_of slots [ s ]
  else
    match s with
    | Barrier -> Sync
    | Seq ss ->
      (* Sibling multipliable statements merge into one run. *)
      let rec group acc run = function
        | [] -> List.rev (if run = [] then acc else run_of slots (List.rev run) :: acc)
        | s :: rest when multipliable s -> group acc (s :: run) rest
        | s :: rest ->
          let acc = if run = [] then acc else run_of slots (List.rev run) :: acc in
          group (stage_node slots s :: acc) [] rest
      in
      Block (group [] [] ss)
    | Let (x, e, body) ->
      Bind (x.Var.vid, compile_int e, expr_counts slots e, stage_node slots body)
    | If (c, a, b) ->
      Branch
        (compile_int c, expr_counts slots c, stage_node slots a, Option.map (stage_node slots) b)
    | For { v; extent; kind; body; _ } ->
      Loop
        {
          vid = v.Var.vid;
          extent = compile_int extent;
          kind;
          rolled = multipliable body;
          body = stage_node slots body;
        }
    | Store _ | Nop -> assert false

type kstage = { ks_name : string; ks_batch_var : int option; ks_body : node }

type staged = {
  s_prog : program;
  s_kernels : kstage list;
  s_tids : int array;  (* Param tid by slot *)
  s_onchip_peak : float;
  s_onchip_planned : (float, exn) result;
}

(* Bytes per Param tensor, by tid (table and list), and their total. *)
let param_sizes uf (p : program) =
  let sizes = Hashtbl.create 8 in
  let total = ref 0.0 in
  List.iter
    (fun t ->
      let elems = List.fold_left (fun acc e -> acc * compile_int e uf []) 1 t.extents in
      let bytes = float_of_int (elems * bytes_per_elem) in
      Hashtbl.replace sizes t.tid bytes;
      total := !total +. bytes)
    p.params;
  (sizes, Hashtbl.fold (fun tid b acc -> (tid, b) :: acc) sizes [], !total)

let stage (p : program) =
  let slots = { slot_of = Hashtbl.create 16; tids_rev = [] } in
  let s_kernels =
    List.map
      (fun (k : kernel) ->
        {
          ks_name = k.kname;
          ks_batch_var =
            (match k.launch with Once -> None | PerInternalBatch b -> Some b.Var.vid);
          ks_body = stage_node slots k.body;
        })
      p.kernels
  in
  (* Resident on-chip footprint: constant-extent Shared/Register
     temporaries (staging buffers, caches of fixed shape, accumulators,
     unroll-local state) are live for a whole launch and must fit
     capacity together.  Scratch sized by the linearized input
     (UF-valued extents) is processed in flight — it is priced through
     on-chip bandwidth, not held resident — so it does not count. *)
  let s_onchip_peak =
    List.fold_left
      (fun acc t ->
        match t.space with
        | Shared | Register ->
          let elems =
            List.fold_left
              (fun n e -> match (n, e) with Some n, Int k -> Some (n * k) | _ -> None)
              (Some 1) t.extents
          in
          (match elems with
           | Some elems -> acc +. float_of_int (elems * bytes_per_elem)
           | None -> acc)
        | Param | Global -> acc)
      0.0 p.temporaries
  in
  (* The same buffers, liveness-packed: temporaries whose live ranges
     never intersect share arena space, so the planned footprint is
     what must actually be resident together.  Always <= the worst
     case above, so switching the capacity check to it only admits
     schedules.  A planner failure surfaces where the unstaged walk
     raised it: after the kernels. *)
  let s_onchip_planned =
    match Mem_plan.plan ~bytes_per_elem ~spaces:[ Shared; Register ] p with
    | plan -> Ok (float_of_int plan.Mem_plan.arena_bytes)
    | exception e -> Error e
  in
  {
    s_prog = p;
    s_kernels;
    s_tids = Array.of_list (List.rev slots.tids_rev);
    s_onchip_peak;
    s_onchip_planned;
  }

(* ---------- pricing: the dynamic walk over the skeleton ---------- *)

(* Mutable accumulator for the segment being built.  The float counters
   share one array (unboxed stores): bytes read per space at 0-3 and
   written at 4-7 (the [c_traffic] indices), then FLOPs, dependent FLOPs
   and the lane maximum. *)
let flops_i = 8
let dep_i = 9
let lanes_i = 10

type acc = {
  a_v : float array;
  a_param_raw : float array;  (* raw Param bytes by slot *)
  mutable a_touched : int list;  (* slots read so far, newest first *)
}

let fresh_acc slots =
  {
    a_v = Array.init 11 (fun i -> if i = lanes_i then 1.0 else 0.0);
    a_param_raw = Array.make slots 0.0;
    a_touched = [];
  }

let is_empty_acc a =
  let rec zero i = i > flops_i || (a.a_v.(i) = 0.0 && zero (i + 1)) in
  zero 0

type state = {
  uf : Uf.t -> int array -> int;
  tids : int array;  (* Param tid by slot *)
  param_bytes : (int, float) Hashtbl.t;  (* tid -> bytes *)
  mutable current : acc;
  mutable segs_rev : segment list;
  mutable barriers : int;
}

let close_segment st =
  if not (is_empty_acc st.current) then begin
    let a = st.current in
    (* The unstaged walk kept raw bytes in a [Hashtbl.create 4] filled
       in first-encounter order and listed them by folding it; a table
       built from the same key sequence folds in the same order.  Sizes
       are integer-valued, so the footprint sums exactly in any order. *)
    let raw = Hashtbl.create 4 in
    List.iter
      (fun slot -> Hashtbl.replace raw st.tids.(slot) a.a_param_raw.(slot))
      (List.rev a.a_touched);
    let footprint, param_raw =
      Hashtbl.fold
        (fun tid b (sum, raw) ->
          ( sum +. (try Hashtbl.find st.param_bytes tid with Not_found -> 0.0),
            (tid, b) :: raw ))
        raw (0.0, [])
    in
    st.segs_rev <-
      {
        flops = a.a_v.(flops_i);
        dep_flops = a.a_v.(dep_i);
        reads = Array.sub a.a_v 0 4;
        writes = Array.sub a.a_v 4 4;
        lanes = a.a_v.(lanes_i);
        param_footprint = footprint;
        param_raw;
      }
      :: st.segs_rev
  end;
  st.current <- fresh_acc (Array.length st.tids)

let rec eval_probe uf env (Probe (vid, e, kids)) =
  let value = match e with Some e -> eval_let e uf env | None -> 0 in
  List.iter (eval_probe uf ((vid, value) :: env)) kids

let note_lanes a lanes = a.a_v.(lanes_i) <- Float.max a.a_v.(lanes_i) lanes

(* Add [mult] units of [c] to the open segment. *)
let add_counts st mult ser c =
  let a = st.current in
  a.a_v.(flops_i) <- a.a_v.(flops_i) +. (mult *. c.c_flops);
  a.a_v.(dep_i) <-
    a.a_v.(dep_i) +. (mult *. (if ser then c.c_dep +. c.c_dep_outer else c.c_dep));
  for i = 0 to Array.length c.c_traffic - 1 do
    let k, bytes = c.c_traffic.(i) in
    a.a_v.(k) <- a.a_v.(k) +. (mult *. bytes)
  done;
  (* Every addition is at least one element's bytes: 0 means untouched. *)
  for i = 0 to Array.length c.c_param_raw - 1 do
    let slot, bytes = c.c_param_raw.(i) in
    if a.a_param_raw.(slot) = 0.0 then a.a_touched <- slot :: a.a_touched;
    a.a_param_raw.(slot) <- a.a_param_raw.(slot) +. (mult *. bytes)
  done

(* [ser] tracks whether the *innermost* enclosing loop is Serial: a
   reduction accumulating into a Register temporary inside such a loop
   runs on a loop-carried dependency chain (each FMA waits on the
   previous one), so its FLOPs are additionally recorded as
   [dep_flops].  The innermost loop is the chain carrier — outer loops
   re-initialize the accumulator per iteration — so binding just the
   reduction loop onto lanes (or unrolling it into distinct
   accumulators) lifts the classification. *)
let rec walk st env mult par vec ser node =
  note_lanes st.current (par *. vec);
  match node with
  | Run c ->
    if c.c_probes <> [] then List.iter (eval_probe st.uf env) c.c_probes;
    for i = 0 to Array.length c.c_lanes - 1 do
      let p, v = c.c_lanes.(i) in
      note_lanes st.current (par *. p *. Float.min vec_lane_cap (vec *. v))
    done;
    add_counts st mult ser c
  | Sync ->
    close_segment st;
    st.barriers <- st.barriers + 1
  | Block ns ->
    let rec go = function
      | [] -> ()
      | n :: rest ->
        walk st env mult par vec ser n;
        go rest
    in
    go ns
  | Bind (vid, e, c, body) ->
    let value = eval_let e st.uf env in
    add_counts st mult ser c;
    walk st ((vid, value) :: env) mult par vec ser body
  | Branch (c, cc, a, b) ->
    add_counts st mult ser cc;
    if c st.uf env <> 0 then walk st env mult par vec ser a
    else (match b with Some b -> walk st env mult par vec ser b | None -> ())
  | Loop { vid; extent; kind; rolled; body } ->
    let n = extent st.uf env in
    if n > 0 then begin
      let f = float_of_int n in
      let par, vec =
        match kind with
        | Parallel -> (par *. f, vec)
        | Vectorized -> (par, Float.min vec_lane_cap (vec *. f))
        | Serial | Unrolled -> (par, vec)
      in
      let ser = kind = Serial in
      if rolled then walk st ((vid, 0) :: env) (mult *. f) par vec ser body
      else
        for i = 0 to n - 1 do
          walk st ((vid, i) :: env) mult par vec ser body
        done
    end

let price s ~uf ~num_internal_batches =
  let param_bytes, param_sizes, param_total_bytes = param_sizes uf s.s_prog in
  let barriers = ref 0 in
  let kernels =
    List.map
      (fun k ->
        let st =
          {
            uf;
            tids = s.s_tids;
            param_bytes;
            current = fresh_acc (Array.length s.s_tids);
            segs_rev = [];
            barriers = 0;
          }
        in
        let launches =
          match k.ks_batch_var with
          | None ->
            walk st [] 1.0 1.0 1.0 false k.ks_body;
            close_segment st;
            1
          | Some bvar ->
            for b = 0 to num_internal_batches - 1 do
              walk st [ (bvar, b) ] 1.0 1.0 1.0 false k.ks_body;
              close_segment st
            done;
            num_internal_batches
        in
        barriers := !barriers + st.barriers;
        { kname = k.ks_name; launches; segments = List.rev st.segs_rev })
      s.s_kernels
  in
  let onchip_planned_bytes =
    match s.s_onchip_planned with Ok b -> b | Error e -> raise e
  in
  {
    kernels;
    param_total_bytes;
    param_sizes;
    barrier_count = !barriers;
    onchip_peak_bytes = s.s_onchip_peak;
    onchip_planned_bytes;
  }

let analyze ~uf ~num_internal_batches p = price (stage p) ~uf ~num_internal_batches

let total_flops t =
  List.fold_left
    (fun acc k -> List.fold_left (fun acc s -> acc +. s.flops) acc k.segments)
    0.0 t.kernels

let traffic_of_space t si =
  List.fold_left
    (fun acc k ->
      List.fold_left (fun acc s -> acc +. s.reads.(si) +. s.writes.(si)) acc k.segments)
    0.0 t.kernels

let global_traffic t = traffic_of_space t (Interp.space_index Global)

let onchip_traffic t =
  traffic_of_space t (Interp.space_index Shared) +. traffic_of_space t (Interp.space_index Register)

let total_launches t = List.fold_left (fun acc k -> acc + k.launches) 0 t.kernels
