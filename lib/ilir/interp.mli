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
    (the frozen walker in test/interp_reference.ml is the oracle).  A
    counting executor ([~count:true]) also counts loads, stores and
    FLOPs per memory space, which the tests cross-check against the
    static cost walker. *)

type value = Vi of int | Vf of float

type counters = {
  mutable loads : int;
  mutable stores : int;
  mutable flops : int;
  mutable loads_by_space : int array;  (** indexed by [space_index] *)
  mutable stores_by_space : int array;
}

val space_index : Ir.space -> int
val fresh_counters : unit -> counters

type context
(** The bindings one execution runs against: uninterpreted functions,
    tensor storage, the per-batch launch count and the counters. *)

val create : num_internal_batches:int -> unit -> context

val counters : context -> counters

val num_internal_batches : context -> int
(** The per-batch launch count this context was created with. *)

val bind_uf : context -> Ir.Uf.t -> (int array -> int) -> unit
(** The argument array is only valid during the call: an executor
    reuses one buffer per call site. *)

val bind_uf0 : context -> Ir.Uf.t -> int -> unit
(** Bind a nullary UF to a constant (e.g. [num_leaves()]). *)

val find_uf : context -> Ir.Uf.t -> int array -> int
(** The function bound to a UF; raises {!Runtime_error} if none is. *)

val bind_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t -> unit
(** Provide storage for a tensor (parameters, inputs, or outputs the
    caller wants to inspect).  Unbound temporaries/outputs are allocated
    zero-filled on first use, with extents evaluated in the context. *)

val get_tensor : context -> Ir.tensor -> Cortex_tensor.Tensor.t
(** Storage of a tensor; allocates if not yet bound. *)

val eval_expr : context -> (int * value) list -> Ir.expr -> value
(** Evaluate an expression under variable bindings (vid -> value).
    Like {!run_stmt} and {!get_tensor}, it compiles what it runs and
    does not count. *)

val run_stmt : context -> (int * value) list -> Ir.stmt -> unit

(** {2 Compiled execution} *)

type executor
(** A program compiled to closures.  Holds no storage: run it against
    as many contexts as needed, one run at a time. *)

val compile : ?count:bool -> Ir.program -> executor
(** [count] (default false) compiles the counting variant; the plain
    one carries no counter code at all. *)

val exec : executor -> context -> unit
(** Runs the kernels in order.  A maximal run of consecutive
    [PerInternalBatch] kernels executes batch-major: for each batch in
    order, every kernel of the run is launched with the batch variable
    bound — the launch interleaving an unfused framework actually
    performs along the dependence-carrying batch sequence.  Counts into
    the context's counters when the executor was compiled counting. *)

val compiled_for : executor -> Ir.program -> bool
(** Whether the executor was compiled from this program (physically the
    same kernel list). *)

val run_program : ?count:bool -> context -> Ir.program -> unit
(** [exec (compile ?count p) ctx]. *)

exception Runtime_error of string
