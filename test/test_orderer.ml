(* Tests of the background orderer: batching bounds, the
   stable-only-after-all-replicas-GC invariant, quiescence during
   reconfiguration, and straggler tolerance of the RDMA GC path. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_m_cluster ?(cfg = Config.default) f =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg () in
      f cluster;
      Engine.stop ())

let fill cluster n =
  let log = Erwin_m.client cluster in
  for i = 1 to n do
    ignore (log.Log_api.append ~size:128 ~data:(string_of_int i))
  done;
  log

let test_max_batch_respected () =
  let cfg = { Config.default with max_batch = 8; order_interval = Engine.ms 1 } in
  with_m_cluster ~cfg (fun cluster ->
      ignore (fill cluster 20);
      Engine.sleep (Engine.ms 20);
      checki "everything eventually stable" 20 cluster.stable_gp;
      checkb "no batch ever exceeded max_batch" true
        (cluster.metrics.largest_batch <= 8);
      checkb "batches were claimed" true (cluster.metrics.largest_batch > 0))

let test_stable_requires_all_replicas () =
  (* If a follower cannot GC (partitioned... here: crashed without the
     controller noticing yet), stable-gp must not advance. *)
  Engine.run (fun () ->
      let cfg = { Config.default with order_interval = Engine.ms 500 } in
      (* No controller: create the raw cluster and start only the orderer,
         so the crash is never repaired and the invariant is observable. *)
      let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
      Orderer.start cluster;
      let log = Erwin_m.client cluster in
      Engine.spawn (fun () ->
          for i = 1 to 5 do
            ignore (log.Log_api.append ~size:128 ~data:(string_of_int i))
          done);
      Engine.sleep (Engine.ms 2);
      (* Crash a follower before the first ordering pass fires. *)
      Ll_net.Fabric.crash cluster.fabric
        (Seq_replica.node (List.nth cluster.replicas 2));
      Engine.sleep (Engine.ms 600);
      checki "stable frozen without full GC" 0 cluster.stable_gp;
      (* The records are still on the shards' doorstep, just not exposed:
         leader already pushed, but no read may see them. *)
      Engine.stop ())

let test_orderer_quiesces_during_reconfig () =
  with_m_cluster (fun cluster ->
      ignore (fill cluster 10);
      Engine.sleep (Engine.ms 2);
      let stable0 = cluster.stable_gp in
      cluster.reconfiguring <- true;
      let log = Erwin_m.client cluster in
      for i = 1 to 10 do
        ignore (log.Log_api.append ~size:128 ~data:("x" ^ string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      checki "no ordering while reconfiguring" stable0 cluster.stable_gp;
      cluster.reconfiguring <- false;
      Engine.sleep (Engine.ms 2);
      checki "resumes afterwards" (stable0 + 10) cluster.stable_gp)

let test_batch_grows_with_backlog () =
  let cfg = { Config.default with order_interval = Engine.ms 1 } in
  with_m_cluster ~cfg (fun cluster ->
      (* Writers outpace the 1ms ordering interval: batches >1. *)
      let done_ = ref 0 in
      for w = 0 to 3 do
        Engine.spawn (fun () ->
            let log = Erwin_m.client cluster in
            for i = 1 to 100 do
              ignore (log.Log_api.append ~size:128 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 100) (fun () -> !done_ = 4));
      Engine.sleep (Engine.ms 5);
      checkb "multi-record batches" true (Erwin_common.avg_batch cluster > 1.5);
      checki "all ordered" 400 cluster.stable_gp)

let test_gc_tolerates_straggler_follower () =
  (* A slow (not dead) follower delays GC acks; the orderer retries until
     they land, and stable-gp still advances — slower, but safely. *)
  with_m_cluster (fun cluster ->
      let straggler = List.nth cluster.replicas 2 in
      Fabric.set_extra_delay (Seq_replica.node straggler) (Engine.ms 2);
      ignore (fill cluster 10);
      Engine.sleep (Engine.ms 30);
      checki "eventually stable" 10 cluster.stable_gp)

(* Wait (polling at 1us grain) for the first ordering batch to be pushed,
   then run [interrupt] — which therefore lands between the batch's shard
   pushes and its follower GC, the window the committer must guard.
   Records are 16KiB so the pushes spend tens of microseconds on the wire
   while the interrupt (polling + a small control RPC) takes ~1-3us. *)
let interrupt_first_batch cluster interrupt =
  Engine.spawn (fun () ->
      let rec poll () =
        if cluster.Erwin_common.inflight_batches = 0 then begin
          Engine.sleep (Engine.us 1);
          poll ()
        end
      in
      poll ();
      interrupt ())

(* The push-to-GC window tests run on the default pipelined, adaptive
   orderer and at depth 1 with a fixed batch, where each batch commits
   before the next is claimed. *)
let depth1 cfg =
  { cfg with Config.pipeline_depth = 1; min_batch = cfg.Config.max_batch }

let test_reconfig_between_push_and_gc_discards_batch tune () =
  (* A view-change signal landing between a batch's shard pushes and its
     follower GC must discard the batch: stable-gp stays put, and once the
     cluster settles the entries are re-ordered exactly once (no position
     double-binds). *)
  let cfg = tune { Config.default with order_interval = Engine.ms 1 } in
  with_m_cluster ~cfg (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 10 do
        ignore (log.Log_api.append ~size:16384 ~data:(string_of_int i))
      done;
      interrupt_first_batch cluster (fun () ->
          cluster.reconfiguring <- true);
      Engine.sleep (Engine.ms 3);
      checki "stable frozen by in-flight invalidation" 0 cluster.stable_gp;
      cluster.reconfiguring <- false;
      Engine.sleep (Engine.ms 10);
      checki "re-ordered after resync" 10 cluster.stable_gp;
      let records = log.Log_api.read ~from:0 ~len:10 in
      Alcotest.(check (list string))
        "each entry bound exactly once, in log order"
        (List.init 10 (fun i -> string_of_int (i + 1)))
        (List.map (fun (r : Types.record) -> r.Types.data) records))

let test_seal_between_push_and_gc_freezes_stable tune () =
  (* Same window, but with a real seal (what reconfiguration sends to the
     old view): the committer must drop the batch rather than GC a sealed
     leader, and stable-gp must not advance. *)
  let cfg = tune { Config.default with order_interval = Engine.ms 1 } in
  Engine.run (fun () ->
      let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.M in
      Orderer.start cluster;
      let log = Erwin_m.client cluster in
      for i = 1 to 10 do
        ignore (log.Log_api.append ~size:16384 ~data:(string_of_int i))
      done;
      let ep = Erwin_common.new_endpoint cluster ~name:"test.sealer" in
      interrupt_first_batch cluster (fun () ->
          List.iter
            (fun r ->
              ignore
                (Rpc.call ep ~dst:(Seq_replica.node_id r)
                   (Proto.Sr_seal { view = cluster.view })))
            cluster.replicas);
      Engine.sleep (Engine.ms 10);
      checki "stable frozen under seal" 0 cluster.stable_gp;
      checkb "leader is sealed" true
        (Seq_replica.is_sealed (Erwin_common.leader cluster));
      (* The entries survive, unordered, for the recovery flush. *)
      checki "entries retained in the leader log" 10
        (Seq_log.live_count (Seq_replica.log (Erwin_common.leader cluster)));
      Engine.stop ())

let test_adaptive_batch_controller () =
  (* Pure-function checks of the batch-size controller. *)
  let cfg = { Config.default with min_batch = 4; max_batch = 64 } in
  (* Full claim with backlog: double. *)
  checki "grows under backlog" 16
    (Orderer.Adaptive.next cfg ~cur:8 ~claimed:8 ~backlog:5);
  (* Growth is clamped at max_batch. *)
  checki "clamped at max" 64
    (Orderer.Adaptive.next cfg ~cur:64 ~claimed:64 ~backlog:100);
  (* Drained log with a small claim: halve. *)
  checki "shrinks when drained" 16
    (Orderer.Adaptive.next cfg ~cur:32 ~claimed:3 ~backlog:0);
  (* Shrink is clamped at min_batch. *)
  checki "clamped at min" 4
    (Orderer.Adaptive.next cfg ~cur:4 ~claimed:0 ~backlog:0);
  (* Partial claim with backlog (pipeline full): hold. *)
  checki "steady otherwise" 16
    (Orderer.Adaptive.next cfg ~cur:16 ~claimed:10 ~backlog:3);
  (* Fixed batch (min_batch = max_batch): always max_batch. *)
  let fixed = { cfg with min_batch = 64 } in
  checki "fixed when min_batch = max_batch" 64
    (Orderer.Adaptive.next fixed ~cur:8 ~claimed:0 ~backlog:0)

(* A fixed batch is [min_batch = max_batch]: whatever the current size,
   the claim and the backlog, the controller answers that one size. *)
let prop_fixed_batch =
  QCheck.Test.make ~name:"min_batch = max_batch = m: next is always m"
    ~count:500
    QCheck.(
      quad (int_range 1 10_000) (int_range (-10) 100_000)
        (int_range 0 100_000) (int_range 0 100_000))
    (fun (m, cur, claimed, backlog) ->
      let cfg = { Config.default with min_batch = m; max_batch = m } in
      Orderer.Adaptive.next cfg ~cur ~claimed ~backlog = m)

let test_adaptive_batch_converges () =
  (* Under a sustained backlog the controller converges to max_batch; once
     writers stop and the log drains it decays back toward min_batch. *)
  let cfg =
    { Config.default with
      min_batch = 2;
      max_batch = 32;
      order_interval = Engine.us 100;
    }
  in
  with_m_cluster ~cfg (fun cluster ->
      let done_ = ref 0 in
      for w = 0 to 3 do
        Engine.spawn (fun () ->
            let log = Erwin_m.client cluster in
            for i = 1 to 150 do
              ignore
                (log.Log_api.append ~size:64 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore
        (Waitq.await_timeout wq ~timeout:(Engine.ms 200) (fun () -> !done_ = 4));
      checkb "grew beyond min_batch under load" true
        (cluster.metrics.largest_batch > cfg.Config.min_batch);
      Engine.sleep (Engine.ms 20);
      checki "all ordered" 600 cluster.stable_gp;
      (* Idle claims are empty, so the controller halves back down. *)
      checkb "decays once drained" true
        (cluster.cur_batch <= cfg.Config.max_batch / 2))

let test_order_preserves_leader_log_order () =
  with_m_cluster (fun cluster ->
      let log = fill cluster 30 in
      Engine.sleep (Engine.ms 3);
      let records = log.Log_api.read ~from:0 ~len:30 in
      Alcotest.(check (list string))
        "positions follow the leader's log order"
        (List.init 30 (fun i -> string_of_int (i + 1)))
        (List.map (fun (r : Types.record) -> r.Types.data) records))

let () =
  Alcotest.run "orderer"
    [
      ( "orderer",
        [
          Alcotest.test_case "max_batch respected" `Quick
            test_max_batch_respected;
          Alcotest.test_case "stable requires all replicas" `Quick
            test_stable_requires_all_replicas;
          Alcotest.test_case "quiesces during reconfig" `Quick
            test_orderer_quiesces_during_reconfig;
          Alcotest.test_case "batch grows with backlog" `Quick
            test_batch_grows_with_backlog;
          Alcotest.test_case "tolerates straggler follower" `Quick
            test_gc_tolerates_straggler_follower;
          Alcotest.test_case "reconfig between push and GC discards batch"
            `Quick (test_reconfig_between_push_and_gc_discards_batch Fun.id);
          Alcotest.test_case "seal between push and GC freezes stable" `Quick
            (test_seal_between_push_and_gc_freezes_stable Fun.id);
          Alcotest.test_case
            "reconfig between push and GC discards batch (depth 1, fixed)"
            `Quick (test_reconfig_between_push_and_gc_discards_batch depth1);
          Alcotest.test_case
            "seal between push and GC freezes stable (depth 1, fixed)" `Quick
            (test_seal_between_push_and_gc_freezes_stable depth1);
          Alcotest.test_case "adaptive batch controller" `Quick
            test_adaptive_batch_controller;
          QCheck_alcotest.to_alcotest prop_fixed_batch;
          Alcotest.test_case "adaptive batch converges" `Quick
            test_adaptive_batch_converges;
          Alcotest.test_case "leader log order preserved" `Quick
            test_order_preserves_leader_log_order;
        ] );
    ]
