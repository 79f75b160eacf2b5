open Ll_sim
open Lazylog

type t = Batching | Replica_reads | Subscriptions | Gray | Tenants

type info = {
  key : string;
  doc : string;
  phrase : string;
  config : Config.t -> Config.t;
  slack : Engine.time;
}

let all = [ Batching; Replica_reads; Subscriptions; Gray; Tenants ]

let info = function
  | Batching ->
    {
      key = "batching";
      doc =
        "Run the clients with append group commit enabled (client-side \
         linger batcher + batched replica ingress): a batch straddling a \
         crash or seal must fail atomically per record, never half-ack.";
      phrase = "append batching";
      (* Default linger (20 us) sits well under the checker's 2 ms append
         timeout, so batched appends still retry within the horizon. *)
      config =
        (fun cfg -> { cfg with Config.linger = Some Config.default_linger });
      slack = Engine.ms 10;
    }
  | Replica_reads ->
    {
      key = "replica_reads";
      doc =
        "Run the demand-driven read path (reads round-robin over shard \
         replicas, read-triggered eager binding, scan readahead) with the \
         reader probing at the stable tail, so backup serving, primary \
         forwarding and demand binding are all exercised under faults.";
      phrase = "replica reads";
      config =
        (fun cfg ->
          {
            cfg with
            Config.replica_reads = true;
            read_demand = true;
            readahead = 8;
          });
      slack = Engine.ms 10;
    }
  | Subscriptions ->
    {
      key = "subscriptions";
      doc =
        "Run the streaming-delivery subsystem alongside the workload (a \
         subscription manager plus two pushed consumers, one \
         crash-restarted twice mid-run) and check exactly-once delivery: \
         every appended record reaches every registered subscriber exactly \
         once, in order, across the injected faults.";
      phrase = "subscriptions";
      config = (fun cfg -> { cfg with Config.subscriptions = true });
      (* The manager must be given time to push the last stable records
         through any still-open fault window (loss/partition windows heal
         by about [horizon + 5ms]) before the completeness audit is
         sound. *)
      slack = Engine.ms 80;
    }
  | Gray ->
    {
      key = "gray";
      doc =
        "Hostile-world mode: the fault generator draws gray (fail-slow) \
         verbs — asymmetric link faults, disk stutter and sustained \
         degrade — and every mitigation runs (hedged reads, retry \
         budgets, latency-outlier eviction), with a progress audit \
         (stable keeps advancing, every acked record binds) after the \
         drain tail.";
      phrase = "gray (fail-slow) faults + mitigations";
      (* A small dirty limit so a fail-slow disk actually backpressures
         the append path within the short horizon (with the default 8 MB
         the checker's workload never fills the write buffer and disk
         verbs would only exercise the flusher). *)
      config =
        (fun cfg ->
          {
            cfg with
            Config.hedge_floor = Some Config.default_hedge_floor;
            retry_budget = true;
            outlier_detection = true;
            dirty_limit_bytes = 32 * 1024;
          });
      slack = Engine.ms 40;
    }
  | Tenants ->
    {
      key = "tenants";
      doc =
        "Multi-log fabric mode: every writer is pinned to its own tenant \
         log, one extra aggressor tenant bursts back-to-back appends, and \
         the cluster runs with weighted-fair ingress (DRR + queue-bound \
         admission) on; every position-scoped invariant (real-time order, \
         stable prefix, read agreement, truncation safety) is checked per \
         log.";
      phrase = "multi-log fabric + fair ingress";
      (* Tenant 1 (the first "victim") gets double weight so the DRR path
         with unequal quanta is exercised; a small ingress queue makes
         admission shedding reachable within the short horizon when the
         aggressor bursts. *)
      config =
        (fun cfg ->
          {
            cfg with
            Config.fair_ingress =
              Some
                {
                  Config.default_ingress with
                  weights = [ (1, 2) ];
                  queue_bound = 8;
                };
          });
      slack = Engine.ms 10;
    }
