(** Erwin-st: the scalable-throughput LazyLog system (section 5).

    Clients split a record into data (written, uncoordinated and in
    parallel, to every replica of a shard of the client's choice) and
    metadata [<record-id, shard-id>] (written to the sequencing replicas),
    all in the same RTT. Background ordering sequences only metadata, so
    throughput scales with shards even for large records; the
    position-to-shard map is materialized on the shards and cached by
    reading clients (section 5.3). Client failures that leave metadata
    without data resolve to no-op records after a shard-side timeout
    (section 5.4). *)

val create : ?cfg:Config.t -> unit -> Erwin_common.t
(** Builds the cluster, starts the orderer, controller, and the shard
    orphan scrubbers. Must run inside {!Ll_sim.Engine.run}. *)

val client : ?log:int -> Erwin_common.t -> Log_api.t
(** Fresh client handle. Reads consult a local position-to-shard cache,
    fetching 1 024 positions in bulk on misses
    (amortization, section 5.3). Returned records include no-ops (filter
    with {!Types.is_no_op}) so positions stay aligned. With [log]
    (multi-log fabric) the handle is pinned to that tenant log: appends
    carry its id and positions are per-log. [trim] is log 0 only. *)

val reader :
  Erwin_common.t ->
  (Proto.req, Proto.resp) Ll_net.Rpc.endpoint ->
  rr0:int ->
  int list ->
  (int * Types.record) list
(** [reader cluster ep ~rr0] is the client read path as a standalone
    closure: position-to-shard resolution through a private cached map
    (bulk [Ssh_get_map] fetches on misses) followed by grouped shard
    reads. Partially applied once, it keeps its cache (made at the first
    call) and replica round-robin state (seeded by [rr0]) across calls. Blocks until the
    requested positions are readable; results are sorted by position and
    include no-ops. Used by [client] and by the subscription manager's
    fetch path ({!Ll_stream}). *)
