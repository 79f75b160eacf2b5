(** Client-side linger batcher — the group-commit front of the append path.

    One batcher per log per cluster process, shared across all of its
    client handles writing that log: concurrent [append]/[appendSync]
    calls coalesce into a single {!Proto.Sr_append} fan-out to all f+1
    sequencing replicas (the request a lone append sends with one entry,
    here carrying the whole batch), and each caller's ivar completes from
    that one ack. A batch flushes on the first of: the [linger] deadline,
    128 records (or [seq_capacity], if smaller: replicas admit a batch
    whole, so a larger one could never fit), or 64 KiB of payload.

    The batcher never retries; callers keep their own retry loops (and so
    re-coalesce after a view change). Only used when
    [cfg.linger = Some linger]. *)

val get :
  Erwin_common.t -> linger:Ll_sim.Engine.time -> log:int ->
  Erwin_common.batch_submit
(** The cluster's shared batcher for [log], lazily created on the log's
    first use with the given [linger]. A batch holds one log's entries. *)
