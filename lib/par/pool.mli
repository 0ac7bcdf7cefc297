(** A fixed-size domain pool with {b deterministic} fan-out.

    The contract that everything downstream (simulator, candidate
    generation, pareto sweeps, fuzzer, bench, batch service) relies on:
    for the same inputs, a run at any [jobs] produces byte-identical
    observable state — return values, metric counters and sums, trace
    events, and therefore report JSON and emitted BLIF — as
    [jobs = 1].  The pool delivers this with a speculate/commit
    protocol:

    - {!speculate} runs an array of closures in parallel (a barrier);
      each body executes on one of the executors under a private
      [Obs.Collector], so no global observability state is touched
      concurrently.
    - The outcomes are then consumed on the main domain {e in index
      order} — by {!commit_result} or by the combinators below — which
      merges each task's collector into the global state, exactly as
      if the tasks had run one after another.

    [jobs = 1] spawns no domains and runs everything inline; it is the
    reference semantics. *)

type t

val create : ?jobs:int -> unit -> t
(** A pool of [jobs] executors: each barrier spawns up to [jobs - 1]
    helper domains, works alongside them on the submitting domain and
    joins them before it returns, so no domain outlives a barrier (an
    idle domain would still slow every minor collection of the
    submitting one).  [jobs] defaults to {!default_jobs} and is
    clamped to at least 1. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [min 8 (Domain.recommended_domain_count ())]. *)

val shutdown : t -> unit
(** Close the pool.  Idempotent.  Submitting to a shut-down pool
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception safe. *)

val in_task : unit -> bool
(** True while executing inside a pool task (in any domain).  Code
    that may run both standalone and inside a task — the optimizer
    invoked by a fuzz case, say — uses this to force [jobs = 1] and
    avoid nested submission. *)

(** {2 Speculation} *)

type 'b speculation

val speculate :
  t -> ?deadline:Obs.Deadline.t -> (unit -> 'b) array -> 'b speculation array
(** Run every closure, in parallel, to completion (a barrier), each
    under a private [Obs.Collector].  A task not yet started when
    [deadline] expires is cancelled and never runs; running tasks are
    not interrupted (cancellation is cooperative — poll the deadline
    in the body).  @raise Invalid_argument from inside a pool task
    (nested submission) or after {!shutdown}. *)

val commit_result :
  'b speculation -> ('b, exn * Printexc.raw_backtrace) result option
(** Consume one outcome on the main domain: merge its collector into
    the global metrics/trace state, then return [Some (Ok value)], or
    [Some (Error (exn, backtrace))] if the task raised — the
    containment primitive for supervisors that must keep running when
    one task fails.  The raising task's collector is still merged
    (sequential parity: the work up to the raise happened and is
    observable).  [None] marks a cancelled task.  Call in index order
    for determinism; a second call on the same speculation raises
    [Invalid_argument]. *)

(** {2 Deterministic combinators} *)

val map : t -> ?deadline:Obs.Deadline.t -> f:('a -> 'b) -> 'a array -> 'b option array
(** Parallel map; outcomes committed left-to-right.  [None] marks a
    cancelled element.  If a task raised, the exception surfaces at
    its index position and the later elements' collectors are
    discarded (never stranded half-merged). *)

val map_result :
  t ->
  ?deadline:Obs.Deadline.t ->
  f:('a -> 'b) ->
  'a array ->
  ('b, exn) result option array
(** Parallel map with per-element containment: element [i] is
    [Some (Ok y)], [Some (Error exn)] if [f xs.(i)] raised, or [None]
    if it was cancelled by the deadline.  A raising element never
    aborts the walk or poisons the pool — every other element's result
    (and observability) is still delivered. *)

val map_reduce :
  t ->
  ?deadline:Obs.Deadline.t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a array ->
  'acc
(** Parallel map, sequential left-to-right reduce on the caller —
    the fold order (and any floating-point accumulation) equals the
    sequential one.  Cancelled elements are skipped. *)
