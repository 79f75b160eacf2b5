(** Deterministic discrete-event simulation engine.

    The engine executes lightweight cooperative fibers over a simulated
    clock. Fibers are ordinary OCaml functions that may call {!now},
    {!sleep}, {!spawn} and {!suspend}; blocking is implemented with OCaml 5
    effect handlers, so protocol code reads as straight-line blocking code
    while the whole simulation runs deterministically in a single domain.

    Time is measured in integer nanoseconds of {e simulated} time. Runs are
    reproducible: given the same seed and the same program, every run
    produces the identical schedule. Events at equal timestamps fire in the
    order they were scheduled, unless {!run} is given [~perturb:true], in
    which case ties are broken by a per-run seeded stream — one workload
    then explores many legal interleavings, one per seed, still fully
    deterministically (the ll_check simulation checker's schedule hook).

    All scheduler state is domain-local: each OS domain owns an independent
    engine, so independent simulations (e.g. a seed sweep) can run in
    parallel domains with no shared state.

    Events are stored in pooled cells inside a hierarchical timer wheel
    (near-future buckets at 1 ns granularity cascading out of coarser
    wheels, with a heap fallback for far-future timers), so the per-event
    cost is a handful of array writes rather than comparator sifts and a
    record + closure allocation. Events execute in the total order
    [(at, tie, seq)]; the test suite checks the wheel against a reference
    binary-heap scheduler on that order. *)

type time = int
(** Simulated time in nanoseconds since the start of the run. *)

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber raises: carries the fiber's name and
    the original exception. *)

(** {1 Time constructors} *)

val ns : int -> time
val us : int -> time
val ms : int -> time
val sec : int -> time

val us_f : float -> time
(** [us_f x] is [x] microseconds, rounded to the nearest nanosecond. *)

val to_us : time -> float
val to_ms : time -> float
val to_sec : time -> float

(** {1 Fiber primitives}

    All of these must be called while {!run} is executing; calling them
    elsewhere raises [Failure]. {!sleep}, {!sleep_until}, {!yield},
    {!suspend} and {!suspend_with} block, so they must be called from a
    fiber; the others are also legal from bare {!call_at} callbacks.

    Blocking costs no allocation beyond the continuation OCaml captures:
    [sleep] and [suspend] are constant effects whose argument is stashed in
    the domain-local engine state for a preallocated handler. *)

val now : unit -> time
(** Current simulated time. Reads the engine clock directly (not an
    effect), so it is also callable from bare {!call_at} callbacks. *)

val sleep : time -> unit
(** [sleep d] suspends the calling fiber for [d] simulated nanoseconds.
    [sleep 0] yields to other fibers scheduled at the current instant. *)

val sleep_until : time -> unit
(** [sleep_until t] sleeps until absolute time [t] ([t <= now] is a yield). *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** [spawn f] schedules fiber [f] to start at the current instant. [name] is
    used in crash reports. Scheduling needs no effect, so [spawn] is legal
    from bare {!call_at} callbacks as well as from fibers; the caller keeps
    running. *)

val start_now : ?name:string -> (unit -> unit) -> unit
(** [start_now f] runs [f] as a new fiber at once, on the caller's stack,
    until it first blocks or returns, then returns to the caller. Called
    from a bare {!call_at} callback, the fiber starts exactly where a
    {!spawn}ed fiber scheduled for that callback's position would have, at
    no extra event: the callback can do the common non-blocking case bare
    and start a fiber only when it finds it must block. *)

val yield : unit -> unit

type 'a waker
(** A one-shot resumption capability for a suspended fiber, or a reusable
    one for a callback ({!callback_waker}). A waker holds the fiber's
    continuation (or the callback), the value to resume it with and the
    token of its armed deadline: {!wake} schedules the waker itself as the
    resume event, so waking allocates no closure. *)

val wake : 'a waker -> 'a -> bool
(** [wake w v] resumes the fiber suspended on [w] with value [v], on a
    fresh event at the current instant. Returns [true] if this call
    performed the wake-up and [false] if the waker had already fired (each
    waker fires at most once). May be called from any fiber or from a
    scheduled callback. *)

val is_woken : 'a waker -> bool
(** Whether the waker has fired. A callback waker reads [true] from its
    wake until its callback runs, and [false] again after. *)

val callback_waker : ('a -> unit) -> 'a waker
(** [callback_waker f] is a reusable waker that runs a function instead of
    resuming a fiber. {!wake} schedules it exactly as it schedules a
    fiber's waker, and when that event fires, the waker is re-armed and
    [f v] runs {e bare} in the scheduler loop, with {!call_at}'s rules: it
    must not block. Once re-armed the waker may be parked and woken
    again, so an event-driven receiver needs one waker for its whole life
    where a fiber allocates a waker and a continuation per wait. A wake
    that finds the waker already fired, before [f] ran, returns
    [false]. *)

val suspend : ('a waker -> unit) -> 'a
(** [suspend register] parks the calling fiber and hands its waker to
    [register]. The fiber resumes with the value later passed to {!wake}.
    If no one ever wakes the waker the fiber stays parked forever (which is
    fine: the run simply ends when no events remain). *)

val suspend_with : ('a waker -> 'b -> unit) -> 'b -> 'a
(** [suspend_with register v] is [suspend (fun w -> register w v)] with
    [v] stashed beside [register], so a top-level [register] builds no
    closure. {!suspend} is [suspend_with (fun w f -> f w) f]. *)

val at : time -> (unit -> unit) -> unit
(** [at t f] schedules callback [f] at absolute simulated time [t] (clamped
    to now if in the past). [f] runs on its own fiber. *)

val after : time -> (unit -> unit) -> unit
(** [after d f] is [at (now () + d) f]. *)

val call_at : time -> (unit -> unit) -> unit
(** [call_at t f] schedules [f] at absolute time [t] (clamped to now if in
    the past), run {e bare} in the scheduler loop rather than on a fiber:
    no fiber start cost and no closure beyond [f] itself. [f] must not
    block ({!sleep}, {!sleep_until}, {!yield}, {!suspend}) — use {!at} for
    callbacks that do, or {!start_now} from [f] to continue on a fiber.
    Calling {!now}, {!wake}, {!spawn} or scheduling further events from
    [f] is fine. *)

val call_after : time -> (unit -> unit) -> unit
(** [call_after d f] is [call_at (now () + d) f]. *)

val call_at_with : time -> ('a -> unit) -> 'a -> unit
(** [call_at_with t f v] schedules [f v] at [t] exactly as
    [call_at t (fun () -> f v)] would — the same position in the
    [(at, tie, seq)] order, with or without [~perturb], and the same bare
    callback rules — without building that closure: the event cell holds
    [f] and [v] themselves. A caller that passes one long-lived [f] and a
    fresh [v] per event allocates nothing beyond [v]; the fabric delivers
    every message this way. The cell drops both when it fires and when
    the run ends. *)

(** {1 Cancellable timers}

    Timed waits (Mailbox/Waitq/Ivar timeouts, RPC deadlines) arm a timer
    they usually don't need: the common case is a normal wake before the
    deadline. Cancellation removes the dead timer from the schedule — the
    wheel unlinks the cell in O(1) and recycles it — so a completed timed
    wait leaves nothing behind to churn through the scheduler. Cancelled
    timers never execute. *)

type timer = private int
(** A cancel token for a pending timer. Tokens are immediate ints (no
    allocation) and are only meaningful within the {!run} that created
    them. *)

val no_timer : timer
(** The null token; {!cancel} on it returns [false]. *)

val timer_after : time -> (unit -> unit) -> timer
(** [timer_after d f] is like [call_at (now () + d) f] — identical
    schedule position — but returns a token that can cancel the callback
    before it fires. *)

val cancel : timer -> bool
(** [cancel t] removes the pending timer: [true] if this call removed it
    (the callback will never run), [false] if it already fired, was
    already cancelled, or [t] is {!no_timer}. *)

val arm_timeout : 'a waker -> time -> 'a -> unit
(** [arm_timeout w d v] arms a deadline on waker [w]: after [d] ns, [w] is
    woken with [v] unless it fired first. A normal {!wake} before the
    deadline cancels the timer automatically — this is the primitive the
    timed waits in Mailbox/Waitq/Ivar are built on. The deadline event is
    the waker itself, so arming allocates nothing. At most one deadline
    per waker: [v] is kept in the waker, so re-arming replaces it. *)

val timers_cancelled : unit -> int
(** Number of timers removed by {!cancel} so far in this run
    (diagnostic; includes deadline auto-cancels). *)

val pending_events : unit -> int
(** Number of scheduled-but-unfired events right now (live wheel cells).
    Lets tests and micro benchmarks observe that cancelled timers really
    left the schedule. *)

(** {1 Randomness} *)

val random_state : unit -> Random.State.t
(** The engine's deterministic random state (seeded by {!run}). Every
    stochastic default in the simulator (fabric jitter seeds, workload
    arrival seeds) should derive from this stream so one master seed
    reproduces the whole run. *)

val master_seed : unit -> int
(** The seed the current (or most recent) {!run} was started with. *)

(** {1 Running} *)

val run : ?seed:int -> ?perturb:bool -> ?until:time -> (unit -> unit) -> unit
(** [run main] resets the clock to 0 and executes [main] plus everything it
    spawns until no scheduled events remain, or until simulated time
    exceeds [until] if given. Exceptions escaping any fiber abort the run
    (printing the master seed for replay) and are re-raised. Runs must not
    nest within a domain; independent domains may run concurrently.

    [perturb] (default false) randomizes tie-breaking among equal-time
    events from a stream derived from [seed], so distinct seeds explore
    distinct legal interleavings of the same program. *)

val stop : unit -> unit
(** Request the current run to stop; remaining events are discarded once the
    currently executing fiber slice returns. *)

val fiber_count : unit -> int
(** Number of fiber starts so far in this run (diagnostic). *)

val events_executed : unit -> int
(** Number of scheduler events executed so far in this run — a stable
    logical clock for repro artifacts (survives until the next {!run}). *)
