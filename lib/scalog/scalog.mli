(** Scalog baseline (Ding et al., NSDI '20), per the paper's section 2.2.

    Append path: the client writes to a shard primary, which assigns a
    shard-local sequence number, stores the record and replicates it in
    FIFO order to its backup. Periodically — every {e interleaving
    interval} (0.1 ms, as in both papers) — all shard servers report their
    log lengths to the ordering layer. The ordering layer computes the
    durable prefix of each shard (stored on both replicas), forms the
    global {e cut}, makes it fault tolerant through {!Ll_repl.Paxos}, and
    distributes it to the primaries, which only then acknowledge the
    appends covered by the cut. Appends therefore pay replication, up to
    one interleaving interval of batching delay, and the ordering round —
    Scalog's eager-ordering cost.

    Global order: records newly covered by cut [k] are ordered after cut
    [k-1]'s, by shard id and then by shard-local sequence number. Readers
    resolve positions to (shard, lsn) through the ordering layer.

    Endpoints default to gRPC-class software overheads, matching the
    open-source Scalog artifact the paper measures against (section 6.1
    notes the artifact uses gRPC while Erwin uses eRPC). *)

open Ll_sim
open Ll_net

type config = {
  nshards : int;
  interleaving_interval : Engine.time;
  shard_disk : Lazylog.Config.disk_kind;
  link : Fabric.link;
  rpc_overhead : Engine.time;  (** per endpoint per direction *)
  shard_base_ns : int;
}

val default_config : config
(** One 2-replica shard, 0.1 ms interleaving, 80 us gRPC-class overheads. *)

type t

val create : ?config:config -> unit -> t
(** Must run inside {!Ll_sim.Engine.run}. *)

val client : t -> Lazylog.Log_api.t

val committed_cuts : t -> int
(** Number of Paxos-committed cuts (diagnostics). *)

val pending_positions : t -> int
(** Positions assigned by a committed cut whose append has not been
    acknowledged yet, summed over shards: 0 once every append covered
    by a cut has replied. *)

val shard_in_isolation_probe :
  ?config:config -> rate:float -> seconds:float -> size:int -> unit ->
  float * float
(** Drives a single Scalog shard (replication only, no ordering layer) at
    [rate] appends/s and returns (mean latency us, achieved throughput/s) —
    the section 6.1 "comparable performance regime" parity check. *)
