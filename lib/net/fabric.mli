(** Simulated datacenter network fabric.

    A fabric connects a set of nodes and delivers typed messages between
    them with a configurable latency model:

    {v delay = send_overhead(src) + one_way + size * per_byte
             + jitter + recv_overhead(dst) v}

    The per-endpoint software overheads model the RPC stack (eRPC-class
    endpoints cost ~1 us, gRPC-class endpoints cost hundreds of us — the
    knob behind the Erwin-vs-Scalog-artifact latency gap in the paper's
    section 6.1). Delivery is FIFO per (src, dst) pair, as over a TCP
    connection. Nodes can crash (messages to and from them are dropped) and
    pairs can be partitioned. *)

open Ll_sim

type node_id = int

type link = {
  one_way : Engine.time;  (** propagation + switching, one direction *)
  per_byte_ns : float;  (** serialization cost per payload byte *)
  jitter : Engine.time;  (** max uniform extra delay *)
}

val default_link : link
(** 25 Gb-class datacenter link: 1.5 us one way, 0.32 ns/B, 300 ns jitter. *)

type 'm t

type 'm node

type 'm packet
(** One message on its way: sender, destination and payload in one
    block. {!send} allocates it and schedules the fabric's one delivery
    function on it ({!Ll_sim.Engine.call_at_with}), so a hop allocates
    the packet and nothing else; the destination's inbox then holds the
    same packet until it is received. *)

val packet_src : 'm packet -> node_id
val packet_msg : 'm packet -> 'm

val create : ?link:link -> ?seed:int -> unit -> 'm t
(** Without [seed], the fabric seeds its jitter/drop stream from the
    engine's master-seeded random state ({!Ll_sim.Engine.random_state}),
    so one master seed reproduces the whole run. Raises
    [Invalid_argument] unless [link.one_way] is positive: every message
    takes time, which the FIFO bookkeeping relies on. *)

val add_node :
  'm t ->
  name:string ->
  ?send_overhead:Engine.time ->
  ?recv_overhead:Engine.time ->
  unit ->
  'm node
(** Registers a node. Overheads default to 500 ns each (eRPC-class). *)

val id : 'm node -> node_id
val name : 'm node -> string
val node_by_id : 'm t -> node_id -> 'm node

val send : 'm t -> src:'m node -> dst:node_id -> size:int -> 'm -> unit
(** Fire-and-forget message of [size] payload bytes. Dropped silently if
    either endpoint is crashed or the pair is partitioned at send time,
    and lost if, when it arrives, the destination is crashed or the pair
    partitioned. *)

val recv : 'm node -> node_id * 'm
(** Blocks until a message arrives at this node; returns the sender. *)

val take_or_park :
  'm node -> 'm packet Engine.waker -> ('m packet -> unit) -> unit
(** [take_or_park n w f] passes the next queued message to [f], or, with
    none queued, parks [w] to be woken with the next one to arrive
    ({!Ll_sim.Mailbox.take_or_park}). An RPC endpoint receives this way,
    on an {!Ll_sim.Engine.callback_waker}, without a fiber. *)

val inbox_length : 'm node -> int

(** {1 Fault injection} *)

val crash : 'm t -> 'm node -> unit
(** Crash: pending and future messages are dropped, inbox is cleared, and
    per-pair FIFO bookkeeping involving the node is forgotten (a revived
    node starts with fresh connections, not delayed behind pre-crash
    traffic). That bookkeeping holds only the pairs with a message in
    flight, so the crash sweeps a table no larger than the traffic in
    flight. Fibers blocked in {!recv}, and wakers parked by
    {!take_or_park}, stay parked. *)

val recover : 'm t -> 'm node -> unit
val is_alive : 'm node -> bool

val partition : 'm t -> node_id -> node_id -> unit
(** Symmetrically block traffic between two nodes. *)

val heal : 'm t -> node_id -> node_id -> unit

val set_drop_probability : 'm t -> float -> unit
(** Uniform random message loss for every link (default 0). *)

val set_extra_delay : 'm node -> Engine.time -> unit
(** Straggler injection: adds a fixed delay to every message into and out
    of this node (0 to clear). *)

val set_link_fault :
  'm t -> src:node_id -> dst:node_id -> ?delay:Engine.time -> ?drop_p:float ->
  unit -> unit
(** Gray failure on the directed [src -> dst] link only: every message
    entering it gains [delay] (default 0) and is dropped with probability
    [drop_p] (default 0; [1.0] is a deterministic one-way partition).
    Asymmetric by construction — the reverse direction is untouched — so
    partial partitions and half-broken paths are expressible. Applied at
    send time; messages already in flight are unaffected. Replaces any
    previous fault on the same directed link. *)

val clear_link_fault : 'm t -> src:node_id -> dst:node_id -> unit

val link_fault : 'm t -> src:node_id -> dst:node_id -> (Engine.time * float) option
(** [(delay, drop_p)] currently installed on the directed link, if any. *)

(** {1 Message accounting}

    Structural verification of protocol complexity: tests count the
    messages an operation costs (e.g. an Erwin append is exactly one
    request and one response per sequencing replica — 1 RTT). *)

val messages_sent : 'm t -> int
(** Total messages accepted for delivery since creation (drops and crashes
    included). *)

val bytes_sent : 'm t -> int

val node_messages_in : 'm node -> int
(** Messages delivered to this node's inbox. *)

val in_flight_pairs : 'm t -> (node_id * node_id) list
(** The [(src, dst)] pairs the FIFO bookkeeping holds: those with a
    message in flight. Empty once the fabric is idle. *)
