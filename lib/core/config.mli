(** Deployment and calibration parameters for the Erwin systems.

    The latency/CPU constants are calibrated so the simulated cluster lands
    in the same regime as the paper's CloudLab x1170 testbed (25 Gb NICs +
    eRPC, SATA SSD shards); see DESIGN.md section 2 and EXPERIMENTS.md for
    the calibration rationale. *)

open Ll_sim
open Ll_net

type disk_kind = Sata | Nvme

(** Weighted-fair ingress parameters ({!field-fair_ingress}). *)
type ingress = {
  weights : (int * int) list;  (** (log, weight) pairs; unlisted logs weigh 1 *)
  quantum : int;
      (** deficit replenished per DRR round, in service-time nanoseconds
          per weight unit *)
  queue_bound : int;
      (** per-tenant queued-append bound; arrivals beyond it are shed
          immediately *)
}

(** Each opt-in feature that has parameters is one option field: [None]
    is off, and [Some p] is on with parameters [p]. A parameter exists
    only while its feature is on. *)
type t = {
  seq_replica_count : int;  (** f+1 sequencing replicas (paper runs 3) *)
  nshards : int;
  shard_backup_count : int;  (** backups per shard (primary excluded) *)
  seq_capacity : int;  (** live entries bound per sequencing replica *)
  order_interval : Engine.time;
      (** background-ordering period (how often the leader cuts a batch) *)
  max_batch : int;  (** max entries ordered per background pass *)
  min_batch : int;
      (** adaptive batching floor: the ordering batch grows toward
          [max_batch] while the sequencing log keeps a backlog and shrinks
          back to [min_batch] once it drains; [min_batch = max_batch] is a
          fixed batch *)
  pipeline_depth : int;
      (** max ordering batches in flight at once; at [1] with
          [min_batch = max_batch] the orderer runs one fixed-size batch at
          a time, with no overlap between batches *)
  seq_base_ns : int;  (** sequencing-replica CPU per request, base *)
  seq_per_byte_ns : float;  (** sequencing-replica CPU per payload byte *)
  shard_base_ns : int;  (** shard CPU per request *)
  shard_disk : disk_kind;
  dirty_limit_bytes : int;
      (** shard in-memory write-buffer bound before backpressure *)
  data_wait_timeout : Engine.time;
      (** Erwin-st: how long a shard waits for a missing record before
          writing a no-op (section 5.4) *)
  append_timeout : Engine.time;  (** client append retry timeout *)
  linger : Engine.time option;
      (** opt-in group commit: [Some d] coalesces concurrent appends of one
          client process into a single multi-entry [Sr_append] fan-out,
          and an open batch waits [d] for more records before flushing (it
          flushes earlier once it holds 128 records, or [seq_capacity] if
          smaller, or 64 KiB of payload). [None] (the default) sends one
          entry per request, as the paper-fidelity figures do. *)
  read_demand : bool;
      (** opt-in read-triggered eager binding: a shard read (or Erwin-st
          map fetch) of a position beyond stable-gp sends
          [Sr_order_demand] to the sequencing layer, and the orderer cuts
          a batch immediately instead of waiting out its lazy cadence —
          a tail read costs one extra hop, not an ordering interval.
          Off by default so the paper-fidelity figures measure the purely
          lazy path. *)
  replica_reads : bool;
      (** opt-in read scale-out: clients round-robin [Sh_read] (and
          Erwin-st [Ssh_get_map]) across every replica of a shard instead
          of pinning all read traffic to the primary. Backups serve
          positions below their own stable mirror from their own store and
          forward the rest to the primary; every read response piggybacks
          the responder's stable so read traffic repairs mirrors that
          missed a lossy one-way [Sh_set_stable]. *)
  readahead : int;
      (** client-side scan readahead window (records); [0] disables. On a
          sequential access pattern the client prefetches the next
          [readahead] positions (shard reads, and map fetches for
          Erwin-st) ahead of the consumer. *)
  map_fetch_chunk : int;
      (** Erwin-st: positions fetched per [Ssh_get_map] when filling the
          client's position-to-shard map cache *)
  subscriptions : bool;
      (** opt-in streaming delivery: a per-cluster subscription manager
          (started separately, [Ll_stream.Manager]) pushes stable-tail
          records to registered subscriber endpoints, keeps durable named
          consumer cursors replicated through the sequencing layer
          ([St_cursor_sync]), and reuses the read-demand wake path so the
          push frontier does not wait out the lazy ordering cadence. Off
          by default so the paper-fidelity figures are untouched. *)
  hedge_floor : Engine.time option;
      (** opt-in tail-latency hedging on the replica-read path: [Some f]
          makes a client read fire a duplicate to a second replica of the
          plan after an adaptive deadline ({!Ll_net.Rpc.hedge_deadline}
          over the endpoint's per-peer latency scores, floored at [f]);
          first response wins, the loser's timer is cancelled. [None] (the
          default) sends no hedge. *)
  retry_budget : bool;
      (** opt-in retry budgets: client endpoints (and shard backup
          endpoints, whose primary-forwards are retried) meter retries
          through a token bucket ({!Ll_net.Rpc.Retry_budget} defaults) so
          timeout storms shed load instead of amplifying. Never attached
          to replication paths. Off by default. *)
  outlier_detection : bool;
      (** opt-in latency-outlier health monitor: the controller probes
          every sequencing replica every 500 us, scores responses
          ({!Ll_net.Rpc.peer_score}), and triggers section 5.5 straggler
          removal for a replica whose score exceeds 4x the median —
          catching fail-slow (gray) replicas whose heartbeats stay green.
          Off by default. *)
  fair_ingress : ingress option;
      (** opt-in weighted-fair scheduling at the sequencing-replica
          ingress, for the multi-log fabric. Tenant logs themselves need
          no knob: a client opened on a tenant log tags its entries with
          the log id, and every log advances its own packed cursors
          ({!Logid}). With [Some p], data-plane appends enqueue into
          per-tenant queues drained by deficit round robin ([p.quantum] x
          the tenant's weight), and a per-tenant queue bound
          ([p.queue_bound]) sheds excess arrivals with an immediate
          failed-append reply — the client's existing retry/backoff (and
          retry-budget) path absorbs the shed. One hot tenant then costs
          its weight share, not its arrival share. [None] (the default)
          keeps the FIFO ingress. *)
  link : Fabric.link;
  rpc_overhead : Engine.time;  (** per-endpoint software overhead (eRPC) *)
  debug_no_rid_pinning : bool;
      (** Intentional-bug gate for the checker: Erwin-st clients re-pick a
          shard on append retry instead of pinning the rid to one shard.
          Loses acknowledged records under message loss. Only for
          validating that [lazylog_check] detects the violation. *)
}

val default : t
(** 3 sequencing replicas, 1 shard with 2 backups, SATA shards, 20 us
    ordering interval; every opt-in feature off. *)

val default_linger : Engine.time
(** 20 us: the linger a caller turning group commit on without tuning it
    uses ([linger = Some default_linger]). *)

val default_hedge_floor : Engine.time
(** 100 us: the hedge floor for hedged reads without tuning. *)

val default_ingress : ingress
(** Fair-ingress parameters without tuning: no weights (every log weighs
    1), a 4 096 ns quantum and a 256-append queue bound per tenant. *)

val with_shards : ?backups:int -> t -> int -> t

val scaled_cluster : t -> t
(** The c6525-class cluster used for the paper's scaling experiments
    (section 6.6): NVMe shards. *)
