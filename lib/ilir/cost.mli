(** Static cost analysis of scheduled ILIR programs.

    Walks a program against a *concrete* linearized input (the
    uninterpreted functions are bound to the linearizer's arrays) and
    produces exact FLOP and byte counts per memory space, split into
    *segments* — the regions between global barriers.  Loops with
    constant extents and branch-free bodies are counted
    multiplicatively, so the walk costs O(nodes), not O(nodes * H^2).

    The backend model (lib/backend) converts these counts into simulated
    latency.  Segments carry the maximum concurrent lane count so the
    backend can model occupancy, and the set of parameter tensors they
    touch so it can model model persistence (persistent weights are
    fetched once; otherwise once per segment, i.e. per dynamic batch). *)

type segment = {
  flops : float;
  dep_flops : float;
      (** subset of [flops] issued on a loop-carried dependency chain:
          reductions accumulating into a Register temporary whose
          innermost enclosing loop is Serial.  Each FMA waits on the
          previous one, so backends price these at their serial issue
          rate; a schedule that binds the reduction loop onto lanes (or
          unrolls it into distinct accumulators) moves the work back to
          full throughput *)
  reads : float array;  (** bytes read per [Interp.space_index] *)
  writes : float array;  (** bytes written per space *)
  lanes : float;  (** max concurrent lanes while this segment ran *)
  param_footprint : float;  (** bytes of distinct Param tensors touched *)
  param_raw : (int * float) list;
      (** raw bytes read per Param tensor (by id): the demand stream
          before any caching; gather-style accesses (embedding rows)
          touch far less than the tensor's footprint *)
}

type kernel_cost = { kname : string; launches : int; segments : segment list }
(** [segments] concatenates the segments of all launches in order. *)

type t = {
  kernels : kernel_cost list;
  param_total_bytes : float;  (** distinct Param bytes across the program *)
  param_sizes : (int * float) list;  (** bytes per Param tensor id *)
  barrier_count : int;  (** total global barriers executed *)
  onchip_peak_bytes : float;
      (** resident footprint of constant-extent Shared/Register
          temporaries (staging buffers, fixed-shape caches,
          accumulators) — checked against the backend's on-chip
          capacity for schedule feasibility.  Scratch whose extent
          depends on the linearized input is streamed, not resident,
          and is priced through on-chip bandwidth instead *)
  onchip_planned_bytes : float;
      (** the same buffers after static memory planning
          ({!Mem_plan.plan}): temporaries whose live ranges never
          intersect share arena space, so this is the footprint that
          must actually be resident together.  Always
          [<= onchip_peak_bytes]; capacity feasibility checks use
          this *)
}

val bytes_per_elem : int
(** 4: the models run in fp32 on the paper's hardware. *)

type staged
(** A program's cost walk with everything that does not depend on the
    linearized input done once: each run of multipliable statements
    (straight-line code under constant-extent loops, merged across
    siblings) is folded into per-unit counts, and the Param sizes, the
    on-chip footprint and the {!Mem_plan} arena are computed.  What is
    left is the skeleton of dynamic extents, conditions, lets and
    barriers, each expression compiled once into a closure, so a staged
    form is not marshallable; its owners rebuild it on load. *)

val stage : Ir.program -> staged

val price :
  staged ->
  uf:(Ir.Uf.t -> int array -> int) ->
  num_internal_batches:int ->
  t
(** Walk the skeleton against one linearized input.  The result is
    bitwise the unstaged walk's: every count is an integer-valued float
    below 2^53, so regrouped sums are exact, and [param_raw] lists tids
    in the walk's first-encounter order.  Raises wherever the unstaged
    walk raised, with the same exception. *)

val analyze :
  uf:(Ir.Uf.t -> int array -> int) ->
  num_internal_batches:int ->
  Ir.program ->
  t
(** [price (stage p)]: for a program priced once.  Callers pricing the
    same program against many inputs keep the {!staged} form. *)

val total_flops : t -> float
val global_traffic : t -> float
(** Bytes moved to/from off-chip memory, excluding parameters (which the
    backend accounts for separately depending on persistence). *)

val onchip_traffic : t -> float
val total_launches : t -> int
