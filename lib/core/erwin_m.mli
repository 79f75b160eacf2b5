(** Erwin-m: the black-box LazyLog system (section 4).

    Clients write whole records to the coordination-free sequencing layer
    in 1 RTT; a background orderer later binds them to global positions and
    pushes them to the shards ([position mod nshards] placement). Shards
    only see ordinary append/read/truncate traffic, which is what lets
    Erwin-m run over unmodified shard stacks (the Kafka deployment of
    section 6.8 uses the same sequencing layer via [Ll_kafka]). *)

val create : ?cfg:Config.t -> unit -> Erwin_common.t
(** Builds the cluster and starts the background orderer and the
    reconfiguration controller. Must run inside {!Ll_sim.Engine.run}. *)

val client : ?log:int -> Erwin_common.t -> Log_api.t
(** A fresh client handle (own fabric node, own client id). Handles are
    single-fiber: spawn one per concurrent client. [append_sync] is
    provided (the section 5.5 extension). With [log] (multi-log fabric)
    the handle is pinned to that tenant log: appends carry its id, and
    positions ([read]/[check_tail]/[append_sync]) are per-log. [trim] is
    log 0 only. *)
