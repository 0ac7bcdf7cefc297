(* A fixed-size domain pool with deterministic fan-out.

   Design:

   - A pool of [jobs] executors holds no domains between barriers.
     Each [speculate] barrier spawns up to [jobs - 1] helper domains,
     works alongside them on the submitting (main) domain, and joins
     them before it returns, so [jobs] bounds total parallelism and
     [jobs = 1] degenerates to inline sequential execution with no
     domains spawned.  Spawning per barrier costs ~60 us a domain
     (2-core x86-64, OCaml 5.1); a domain kept alive between barriers
     costs more, because even an idle domain takes part in every
     stop-the-world minor collection — that slowed the optimizer's
     sequential exact checks by ~5% at [jobs = 2].

   - The only submission primitive is [speculate]: a full barrier that
     runs an array of closures and returns their outcomes.  Every task
     body executes under a private [Obs.Collector] (metrics shard +
     trace buffer), so helpers never touch the global registry or the
     sink.  Results are then walked on the main domain in index order:
     [commit_result] merges the task's collector and yields its value
     or its exception; [discard] drops both (the combinators' cleanup
     after a raise).  Committing in index order is what makes parallel
     observable state byte-identical to a sequential run.

   - Cancellation is cooperative and conservative: a task that has not
     started when its [Obs.Deadline] expires is marked [Cancelled] and
     never runs.  Tasks already running are not interrupted — the task
     body is expected to poll the same deadline itself (the checkers
     do, via their own budget plumbing).

   - Nested submission is rejected: a task body calling back into any
     pool would break the determinism story, so it raises
     [Invalid_argument] immediately. *)

module Deadline = Obs.Deadline

type t = { jobs : int; mutable alive : bool }

let jobs t = t.jobs

let default_jobs_cap = 8
let default_jobs () = max 1 (min default_jobs_cap (Domain.recommended_domain_count ()))

let in_task_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_task () = Domain.DLS.get in_task_key

let create ?jobs () =
  let jobs =
    match jobs with Some j -> max 1 j | None -> default_jobs ()
  in
  { jobs; alive = true }

let shutdown t = t.alive <- false

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type 'b outcome =
  | Done of 'b * Obs.Collector.t
  | Raised of exn * Printexc.raw_backtrace * Obs.Collector.t
  | Cancelled

type 'b speculation = {
  outcome : 'b outcome;
  mutable consumed : bool;
      (* set by commit_result/discard: each speculation's
         collector is merged or dropped exactly once, so cleanup
         finalizers can blanket-[discard] without double-counting *)
}

let run_collected f =
  let coll = Obs.Collector.create () in
  let saved = Obs.Collector.activate coll in
  Domain.DLS.set in_task_key true;
  let r =
    match f () with
    | v -> Done (v, coll)
    | exception e -> Raised (e, Printexc.get_raw_backtrace (), coll)
  in
  Domain.DLS.set in_task_key false;
  Obs.Collector.deactivate saved;
  r

let speculate t ?(deadline = Deadline.never) (fs : (unit -> 'b) array) :
    'b speculation array =
  if in_task () then
    invalid_arg "Par.Pool.speculate: nested submission from inside a pool task";
  if not t.alive then invalid_arg "Par.Pool.speculate: pool is shut down";
  let n = Array.length fs in
  let outcomes = Array.make n Cancelled in
  let next = Atomic.make 0 in
  (* every executor claims the next unclaimed index until none is left;
     [Domain.join] publishes the helpers' writes to the main domain *)
  let rec drain () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      if not (Deadline.expired deadline) then outcomes.(i) <- run_collected fs.(i);
      drain ()
    end
  in
  let helpers = List.init (max 0 (min t.jobs n - 1)) (fun _ -> Domain.spawn drain) in
  drain ();
  List.iter Domain.join helpers;
  Array.map (fun outcome -> { outcome; consumed = false }) outcomes

(* Speculation accounting.  Both [commit_result] and [discard] only
   ever run on the main domain, so plain registry counters are safe;
   the values are a parallelism diagnostic (how much work a raise or a
   deadline threw away) and are deliberately NOT part of any report
   compared across job counts. *)
let m_committed = Obs.Metrics.counter "par.speculations.committed"
let m_discarded = Obs.Metrics.counter "par.speculations.discarded"
let m_cancelled = Obs.Metrics.counter "par.speculations.cancelled"

let commit_result (s : 'b speculation) :
    ('b, exn * Printexc.raw_backtrace) result option =
  if s.consumed then
    invalid_arg "Par.Pool.commit_result: speculation already consumed";
  s.consumed <- true;
  match s.outcome with
  | Cancelled ->
    Obs.Metrics.incr m_cancelled;
    None
  | Done (v, coll) ->
    Obs.Collector.commit coll;
    Obs.Metrics.incr m_committed;
    Some (Ok v)
  | Raised (e, bt, coll) ->
    Obs.Collector.commit coll;
    Obs.Metrics.incr m_committed;
    Some (Error (e, bt))

(* [commit_result] that re-raises the task's exception with its
   original backtrace: the combinators' internal consume step. *)
let commit s =
  match commit_result s with
  | None -> None
  | Some (Ok v) -> Some v
  | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt

let discard (s : _ speculation) =
  if not s.consumed then begin
    s.consumed <- true;
    match s.outcome with
    | Done (_, coll) | Raised (_, _, coll) ->
      Obs.Collector.discard coll;
      Obs.Metrics.incr m_discarded
    | Cancelled -> ()
  end

(* Every combinator below blanket-discards the batch in a finalizer:
   if a commit re-raises a task's exception mid-walk, the collectors
   of the not-yet-consumed speculations are dropped instead of
   stranded (consume-once makes the blanket pass a no-op for the
   already-committed prefix). *)

let map t ?deadline ~f xs =
  let specs = speculate t ?deadline (Array.map (fun x () -> f x) xs) in
  let out = Array.make (Array.length specs) None in
  Fun.protect
    ~finally:(fun () -> Array.iter discard specs)
    (fun () ->
      for i = 0 to Array.length specs - 1 do
        out.(i) <- commit specs.(i)
      done);
  out

let map_result t ?deadline ~f xs =
  let specs = speculate t ?deadline (Array.map (fun x () -> f x) xs) in
  let out = Array.make (Array.length specs) None in
  for i = 0 to Array.length specs - 1 do
    out.(i) <- Option.map (Result.map_error fst) (commit_result specs.(i))
  done;
  out

let map_reduce t ?deadline ~map:f ~reduce ~init xs =
  let specs = speculate t ?deadline (Array.map (fun x () -> f x) xs) in
  let acc = ref init in
  Fun.protect
    ~finally:(fun () -> Array.iter discard specs)
    (fun () ->
      for i = 0 to Array.length specs - 1 do
        match commit specs.(i) with
        | None -> ()
        | Some v -> acc := reduce !acc v
      done);
  !acc
