(** A Kafka-like per-shard-order shared log.

    Each "shard" is a topic partition served by a leader broker and
    replicated to followers with acks=all semantics (the safe
    configuration; section 2.2 notes the acks=1 shortcut loses data).
    Producers batch client-side (linger + max batch), brokers assign
    offsets in arrival order — eager per-shard ordering — and replicate
    synchronously before acknowledging. Endpoints carry gRPC-class
    software overheads, matching the JVM client stack.

    Used two ways in the paper's evaluation: stand-alone (the baseline of
    figure 15) and as the black-box shard under Erwin-m's sequencing layer
    ({!Kafka_erwin}), which turns per-shard order into a low-latency total
    order across partitions (section 6.8). *)

open Ll_sim
open Ll_net

type config = {
  npartitions : int;
  replicas : int;  (** brokers per partition, leader included *)
  linger : Engine.time;  (** producer-side batching delay *)
  max_batch : int;  (** records per produce request *)
  broker_base_ns : int;
  rpc_overhead : Engine.time;
  link : Fabric.link;
  disk : Lazylog.Config.disk_kind;
}

val default_config : config
(** 1 partition, 3 replicas, 5 ms linger, gRPC-class overheads. *)

type t

val create : ?config:config -> unit -> t
(** Must run inside {!Ll_sim.Engine.run}. *)

val partitions : t -> int

(** Client-side batching producer (linger + max batch, like the Java
    client). *)
module Producer : sig
  type p

  val append : p -> Lazylog.Types.record -> unit
  (** Blocks until the record's batch is acknowledged (acks=all). *)
end

val producer : t -> partition:int -> Producer.p

(** {1 Raw partition operations (used by the Erwin-m adapter)} *)

type conn
(** A caller's endpoint on the Kafka network: one fabric node, from which
    every call made through it leaves. Per-pair FIFO then keeps one
    caller's requests to a partition in send order. *)

val connect : t -> name:string -> conn

type produces
(** The produces one {!produce_slices} sent, until they are acked. *)

val produce_slices : conn -> Lazylog.Types.record list array -> produces
(** [produce_slices c slices] sends [slices.(i)] to partition [i], one
    produce per non-empty slice, without waiting. Produces from one
    [conn] to one partition take offsets in send order. *)

val await_produces : produces -> unit
(** Blocks until every produce of the group is acknowledged: appended
    by the leader and replicated to every follower (acks=all). *)

val fetch :
  conn -> partition:int -> offset:int -> max:int ->
  (int * Lazylog.Types.record) list
(** Reads records from the partition leader, blocking until [offset]
    exists. *)

val read : conn -> from:int -> len:int -> Lazylog.Types.record list
(** The records at positions [from, from + len), position [p] being
    offset [p / n] of partition [p mod n] ([n] partitions): one {!fetch}
    per partition, blocking until each partition holds its first
    requested offset. Positions past a partition's tail are left out. *)

val truncate_partition : conn -> partition:int -> int -> unit
(** Logical tail overwrite: delete records at offsets [>= n] (how a Kafka
    shard supports Erwin-m's view-change flush, section 4.1). *)

val partition_tail : t -> partition:int -> int

val client_log : t -> Lazylog.Log_api.t
(** Stand-alone Kafka as a [Log_api.t] (the figure 15 baseline): appends
    round-robin over partitions through shared batching producers; reads
    are {!read}, whose positions follow that round robin, but appends
    take offsets in each partition's own arrival order, so the positions
    give only a per-partition order — the point of section 6.8. *)
