(** Request/response RPC over a {!Fabric}.

    Every participant (client or server) owns an {e endpoint} bound to a
    fabric node. An endpoint demultiplexes incoming traffic: responses
    complete pending calls; requests are charged the endpoint's service
    time on the endpoint's (single) CPU and then dispatched to the handler
    on a fresh fiber, so a handler that blocks on sub-operations does not
    stall the server loop but CPU work is properly serialized. An endpoint
    with a bare path ({!set_bare_handler}) runs the requests that path
    accepts without a fiber.

    The endpoint itself receives without a fiber: one reusable
    {!Ll_sim.Engine.callback_waker} takes each {!Fabric.packet} as it is
    handed over, and a request's service time is one timer, so receiving
    costs no suspension. It schedules exactly the events a receiving
    fiber would. Nor does it allocate per request: a request travels
    through service as its sender and call token, and a [reply] closure
    is made for it only when a handler fiber starts or the ingress hook
    ({!set_ingress}) is offered it; the bare path ({!set_bare_handler})
    answers through one reply per endpoint. A failure raised while the
    endpoint handles a message (in an ingress hook or a service-time
    function) aborts the run as [Fiber_failure ("<node>.demux", e)].

    A server that crashes (via {!Fabric.crash}) silently drops traffic;
    callers should use {!call_timeout} on paths where failures are
    expected. *)

open Ll_sim

type node_id = Fabric.node_id

type ('req, 'resp) msg

type ('req, 'resp) endpoint

val endpoint :
  ('req, 'resp) msg Fabric.t -> ('req, 'resp) msg Fabric.node
  -> ('req, 'resp) endpoint
(** Creates the endpoint. It starts receiving at one event scheduled at
    the current instant. *)

val node : ('req, 'resp) endpoint -> ('req, 'resp) msg Fabric.node
val endpoint_id : ('req, 'resp) endpoint -> node_id

val set_handler :
  ('req, 'resp) endpoint ->
  (src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> unit) ->
  unit
(** Installs the request handler. [reply] may be invoked at most once, from
    any fiber, and sends the response back to the caller ([size] is the
    response payload size in bytes, default 64). Requests arriving at an
    endpoint with no handler are dropped. The first call also sets up the
    endpoint's server state, so an endpoint that only makes calls carries
    none. *)

val set_bare_handler :
  ('req, 'resp) endpoint ->
  (src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> bool) ->
  unit
(** Installs a non-blocking fast path in front of the handler. Where the
    handler's fiber would start, the endpoint instead runs the bare path
    as a bare {!Ll_sim.Engine.call_at} callback at that same point in the
    schedule. It returns [true] when it has handled the request (it must
    not block, so it may not sleep, suspend or wait), or [false], having
    done nothing, to have the handler start on a fiber right there
    ({!Ll_sim.Engine.start_now}). Either way the request is served at the
    instant and position it always was; only the fiber is saved.

    The [reply] a bare handler is given is one function per endpoint,
    bound to the request being run: it may be called only during the
    call, at most one response is sent however often it is called, and a
    call after the handler has returned raises [Invalid_argument]. A
    handler that must answer later declines, and its fallback fiber gets
    a reply of its own (a no-op if the bare handler already answered).

    The sequencing replica installs one: an [Sr_append] whose entries fit
    the log (or that its view check refuses) is answered bare; one that
    must wait for capacity runs on a fiber. Both shard roles install one
    for every request that cannot suspend (the data writes, stable and
    trim notices, covered reads). Every other endpoint runs all its
    requests on fibers. *)

val set_service_time : ('req, 'resp) endpoint -> ('req -> Engine.time) -> unit
(** CPU cost charged serially per incoming request (default 0). *)

val set_ingress :
  ('req, 'resp) endpoint ->
  (src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> bool) ->
  unit
(** Installs an ingress scheduler: every incoming request is offered to it
    (on the endpoint's receive path, before any service-time charge; it
    must not block). Returning
    [true] transfers ownership — the scheduler queues the request under
    its own service discipline (re-entering via {!serve} when it dequeues)
    or sheds it by invoking [reply] directly. Returning [false] falls
    through to the default FIFO serial path, byte-identically — schedulers
    bypass traffic they do not classify. *)

val serve :
  ('req, 'resp) endpoint ->
  src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> unit
(** The default service discipline: charge the request's service time
    (blocking the calling fiber — serial service), then start the
    installed handler exactly as the endpoint's own receive path does
    (the bare path first, if installed). Ingress schedulers call this
    from their drain fiber for each dequeued request. *)

val service_time_of : ('req, 'resp) endpoint -> 'req -> Engine.time
(** The endpoint's modeled CPU cost for one request (what {!serve} will
    charge) — lets an ingress scheduler cost-account a request before
    deciding to queue or shed it. *)

val call :
  ('req, 'resp) endpoint -> dst:node_id -> ?size:int -> 'req -> 'resp
(** Synchronous call; blocks forever if the peer never answers. [size] is
    the request payload size in bytes (default 64). *)

val call_timeout :
  ('req, 'resp) endpoint ->
  dst:node_id -> ?size:int -> timeout:Engine.time -> 'req ->
  'resp option
(** On expiry the call's pending-table entry is dropped (a late response
    is then ignored), so timeout storms do not leak table entries. *)

(** {1 Group calls}

    The one way to fan requests out, retry them and join their replies.
    Every member's reply is counted as it lands, and the awaiting fiber
    is woken once, by the reply that completes the group.

    A group is joined in one of two ways. {!group_await} waits under one
    deadline for the whole group. {!group_join} has no deadline: a group
    without rounds then waits as long as its replies take, and a group
    with rounds until each member has replied or given up.

    {b Rounds.} A group made with [~round] calls each member again until
    it answers, up to [tries] calls in all. The group's own timer drives
    the retries, so they go on whether or not a fiber awaits the group
    yet:
    - the first round is sent from one event, scheduled by the first
      {!group_call} at the current instant;
    - [round] ns after a member's call went out unanswered, one event
      later, the call is dropped and counted in {!counters}'
      [cs_timeouts]; a reply that lands in between is ignored, as a
      timed-out call's is;
    - the member is then sent its request again, counted in
      [cs_retries], after a backoff if the group has one: after try [n]
      it waits [base / 2 + jitter] with [base = backoff * 2^min(n-1, 6)]
      and the jitter uniform below [base], drawn from
      {!Ll_sim.Engine.random_state} at that event, so runs stay
      deterministic per seed;
    - the reply that completes the group wakes the awaiting fiber one
      event later.

    These are the sends, counters and instants of one fiber per member
    retrying a {!call_timeout} of [round] ns with that backoff, started
    where the first round goes out and joined by the waiter; the
    requests must be idempotent. A group without rounds keeps none of
    this state.

    {b Hedges.} A member of a group with rounds may carry a hedge: if
    neither it nor its hedge has answered [after] ns into a round, the
    request is sent to the hedge's destination too, one event later
    (counted in [cs_hedges_fired]). The first reply fills the member and
    the other call is dropped; a hedge that wins is counted in
    [cs_hedges_won], and the call it beat is scored (see
    {!peer_score}) with the time it had taken, a lower bound, so a
    fail-slow peer that always loses the race still scores slow. A
    round's deadline drops both calls.

    {b Need.} A group made with [~need:k] completes on its first [k]
    replies. The calls still pending then are dropped, so their late
    replies are ignored and a crashed member leaves no entry behind. *)

type ('req, 'resp) group

val group :
  ?need:int -> ?tries:int -> ?round:Engine.time -> ?backoff:Engine.time ->
  ('req, 'resp) endpoint -> int -> ('req, 'resp) group
(** [group ep n] is an empty group of [n] calls from [ep], complete once
    all [n] have replied. [need] (default [n]) completes it on fewer.
    [round] makes it retry each member every [round] ns, [tries] calls
    in all (default 1), with [backoff] (default 0: resend at once)
    between them; [need] and [round] do not combine. *)

val group_call :
  ('req, 'resp) group -> dst:node_id -> ?size:int ->
  ?hedge:node_id * Engine.time -> 'req -> unit
(** Makes the group's next call; members are numbered in call order from
    0. A group without rounds sends at once; a group with rounds sends in
    its first round, which needs all [n] calls made by then. [hedge] is
    the member's hedge (destination, delay); it needs rounds. Raises
    [Invalid_argument] past [n] calls. *)

val fan_out :
  ?need:int -> ?tries:int -> ?round:Engine.time -> ?backoff:Engine.time ->
  ('req, 'resp) endpoint -> node_id list -> ?size:int -> 'req ->
  ('req, 'resp) group
(** [fan_out ep dsts req] is a {!group} of one call of [req] to each of
    [dsts], members in list order. *)

val group_await : ('req, 'resp) group -> timeout:Engine.time -> bool
(** Waits until the group is complete ([true]; no suspension if it
    already is) or [timeout] ns have passed ([false]). On expiry the
    unanswered members are dropped from the pending table, so their late
    replies are ignored and a crashed destination leaves no entry behind.
    A group's expiry is not counted in {!counters}' [cs_timeouts]. All [n]
    calls must have been made; a group with rounds is joined by
    {!group_join} instead. *)

val group_join : ('req, 'resp) group -> bool
(** Waits with no deadline until the group is complete, or, with rounds,
    until every member has replied or given up. [true] when it is
    complete: its [need] replies are in and no member gave up. All [n]
    calls must have been made. *)

val group_reply : ('req, 'resp) group -> int -> 'resp option
(** The reply of member [m], if it has replied. *)

val group_for_all : ('req, 'resp) group -> ('resp -> bool) -> bool
(** The group is complete and every reply in satisfies the predicate. *)

(** {1 Latency scoring}

    The demux records an RTT sample per response against the destination
    peer and maintains RFC-6298-style statistics: [srtt] (EWMA, gain 1/8)
    and [dev] (mean deviation, gain 1/4). The {e score} [srtt + 4 * dev]
    is a cheap upper-percentile proxy used for hedge deadlines and for
    latency-outlier detection. Timed-out calls contribute no sample
    (Karn's rule) — callers that want censored evidence feed it
    explicitly via {!note_peer_sample}. *)

val peer_score : ('req, 'resp) endpoint -> node_id -> float option
(** [srtt + 4 * dev] in ns, or [None] before the first sample. *)

val note_peer_sample :
  ('req, 'resp) endpoint -> node_id -> Engine.time -> unit
(** Feed one latency observation into the peer's statistics by hand.
    Health monitors use this to count a probe timeout as a (censored)
    sample at the timeout bound — without it a replica slow enough to
    blow the probe deadline would score {e healthier} than a mildly
    slow one, since its timed-out probes record nothing. *)

val peer_samples : ('req, 'resp) endpoint -> node_id -> int

val forget_peer : ('req, 'resp) endpoint -> node_id -> unit
(** Drops the peer's statistics (e.g. after membership changes, so a new
    incarnation starts a fresh window). *)

val hedge_deadline :
  ('req, 'resp) endpoint -> dsts:node_id list -> floor:Engine.time ->
  Engine.time
(** Adaptive hedge deadline: the lower-median of the candidates' scores
    (so one slow outlier cannot inflate it), never below [floor]. [floor]
    when no candidate has been scored yet. *)

(** {1 Introspection} *)

val pending_calls : ('req, 'resp) endpoint -> int
(** Outstanding entries in the pending-call table (should drop back to 0
    once every in-flight call has completed or timed out). *)

val table_steps : unit -> int
(** Pending-table slots visited by completions so far in this domain,
    over every endpoint: per response that completes a call, its entry
    plus the probe from the token's home slot and the backward-shift
    walk that removes it (diagnostic). Sequential tokens are hashed, so
    this stays a small constant per completion however many calls one
    endpoint has pending. *)

type counter_snapshot = {
  cs_timeouts : int;
  cs_retries : int;
  cs_shed : int;
      (** always 0: nothing sheds retries since retry budgets were
          retired. Kept because the repository benchmark's per-layer
          table reads it ([net.rpc_shed_per_kop]); it goes with the next
          change to that benchmark. *)
  cs_hedges_fired : int;
  cs_hedges_won : int;
}

val counters : unit -> counter_snapshot
(** Cumulative per-domain counters across every endpoint (the retry-path
    analogue of {!Ll_sim.Engine.timers_cancelled}): timed-out calls,
    retry attempts, hedges launched, hedges that won. *)

val counters_diff :
  before:counter_snapshot -> after:counter_snapshot -> counter_snapshot

val send_oneway :
  ('req, 'resp) endpoint -> dst:node_id -> ?size:int -> 'req -> unit
(** Fire-and-forget; delivered to the peer's handler with a no-op [reply]. *)
