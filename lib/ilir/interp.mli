(** Numeric execution of ILIR programs.

    Executes compiled kernels numerically over real tensors — this is
    the "target" our code generation retargets to, playing the role the
    CUDA/C backends play in the paper's prototype.  Parallel and
    vectorized loops run serially (the ILIR's parallel loops are
    data-race-free between barriers, so the serial order is a valid
    schedule).

    A program is compiled once ({!compile}) into OCaml closures over a
    slot-indexed frame and then run against any number of contexts
    ({!exec}); the results are bitwise those of a tree walk of the IR
    (the frozen walker in test/interp_reference.ml is the oracle, and
    the tests that need dynamic load, store and FLOP counts take them
    from it). *)

type value = Vi of int | Vf of float

val space_index : Ir.space -> int
(** The index of a memory space in per-space arrays ({!Cost}'s reads
    and writes). *)

type context
(** The bindings one execution runs against: uninterpreted functions,
    tensor storage and the per-batch launch count. *)

val create : num_internal_batches:int -> unit -> context

val num_internal_batches : context -> int
(** The per-batch launch count this context was created with. *)

val bind_uf : context -> Ir.Uf.t -> (int array -> int) -> unit
(** The argument array is only valid during the call: an executor
    reuses one buffer per call site. *)

val find_uf : context -> Ir.Uf.t -> int array -> int
(** The function bound to a UF; raises {!Runtime_error} if none is. *)

val bind_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t -> unit
(** Provide storage for a tensor (parameters, inputs, or outputs the
    caller wants to inspect).  Unbound temporaries/outputs are allocated
    zero-filled on first use, with extents evaluated in the context. *)

val get_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t
(** Storage of a tensor; allocates if not yet bound. *)

(** {2 Compiled execution} *)

type executor
(** A program compiled to closures.  Holds no storage: run it against
    as many contexts as needed, one run at a time. *)

val compile : Ir.program -> executor

val exec : executor -> context -> unit
(** Runs the kernels in {!Ir.launch_groups} order: a maximal run of
    consecutive [PerInternalBatch] kernels executes batch-major — for
    each batch in order, every kernel of the run is launched with the
    batch variable bound — the launch interleaving an unfused framework
    actually performs along the dependence-carrying batch sequence. *)

val compiled_for : executor -> Ir.program -> bool
(** Whether the executor was compiled from this program (physically the
    same kernel list). *)

val run_program : context -> Ir.program -> unit
(** [exec (compile p) ctx]. *)

exception Runtime_error of string
