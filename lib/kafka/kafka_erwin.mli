(** Erwin-m over off-the-shelf Kafka shards (section 6.8).

    Demonstrates the black-box property: the same coordination-free
    sequencing layer (eRPC-class, 1 RTT appends) is bolted on in front of
    unmodified Kafka partitions. Clients append to the sequencing replicas
    only; the same pipelined {!Lazylog.Orderer} that runs over Erwin-m's
    own shards orders the records and produces them, in batches, to
    partition [position mod npartitions] — giving linearizable
    total order {e across} Kafka shards at microsecond append latencies,
    while stand-alone Kafka (eager per-shard ordering with acks=all and
    producer batching) takes milliseconds. *)

val create :
  ?cfg:Lazylog.Config.t -> ?kafka_config:Kafka.config -> unit ->
  Lazylog.Erwin_common.t * Kafka.t
(** Builds an Erwin cluster with {e zero} native shards plus a Kafka
    cluster, and starts {!Lazylog.Orderer.run} with a push that produces
    each partition's slice of a batch and a join that waits for those
    produces. Position [p] lands at offset [p / npartitions] of partition
    [p mod npartitions]; the Erwin cluster's [stable_gp] advances as
    batches land on Kafka. *)

val client : Lazylog.Erwin_common.t * Kafka.t -> Lazylog.Log_api.t
(** Appends through the sequencing layer (1 RTT); reads wait for
    [stable_gp] to cover them, then fetch from the Kafka partition
    leaders with {!Kafka.read}. *)
