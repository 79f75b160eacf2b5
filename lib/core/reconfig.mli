(** Sequencing-layer failure handling: views and reconfiguration
    (section 4.5).

    A ZooKeeper-session expiry triggers the controller, which then runs
    the paper's four steps: {e detect} (the session timeout itself),
    {e seal} the old view on every surviving replica, {e flush} the
    recovery replica's unordered log to the shards starting at its
    last-ordered-gp (logically overwriting any tail the failed leader may
    have pushed), and {e start the new view} — writing the new
    configuration to ZooKeeper {e before} advancing stable-gp, as the
    correctness argument requires. Phase durations are appended to the
    cluster's [reconfig_log] (figure 17b). *)

val start : Erwin_common.t -> unit
(** Installs the ZooKeeper expiry watcher that drives view changes. When
    [cfg.outlier_detection] is set, also starts the latency-outlier
    health monitor: probes of every sequencing replica each 500 us,
    scored via {!Ll_net.Rpc.peer_score}; a replica whose score exceeds
    4x the median (every replica with at least 8 samples, >= 3 present)
    is evicted through {!remove_replica} — catching fail-slow replicas
    whose heartbeats never expire. *)

val remove_replica : Erwin_common.t -> Seq_replica.t -> unit
(** Reconfigures a live replica out of the sequencing layer — the
    persistent-straggler mitigation of section 5.5. Blocking (the view
    change runs on the calling fiber). As after a crash-triggered view
    change, a member found dead when it ends starts one more. *)
