(* View changes and failure handling (paper section 4.5): follower and
   leader crashes, the stable-prefix invariant, sealing, reconfiguration
   timing, and safe unavailability past f failures. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let wait_for ?(timeout = Engine.ms 200) pred =
  let wq = Waitq.create () in
  ignore (Waitq.await_timeout wq ~timeout pred : bool)

let run_with_crash ~mode ~crash_leader ~checks () =
  Engine.run (fun () ->
      let cfg = { Config.default with Config.nshards = 2 } in
      let cluster =
        match mode with
        | `M -> Erwin_m.create ~cfg ()
        | `St -> Erwin_st.create ~cfg ()
      in
      let client () =
        match mode with
        | `M -> Erwin_m.client cluster
        | `St -> Erwin_st.client cluster
      in
      let acked = Hashtbl.create 256 in
      let writers_done = ref 0 in
      for w = 0 to 3 do
        let log = client () in
        Engine.spawn (fun () ->
            for i = 1 to 200 do
              let data = Printf.sprintf "%d-%d" w i in
              if log.append ~size:256 ~data then Hashtbl.replace acked data ()
            done;
            incr writers_done)
      done;
      Engine.after (Engine.ms 2) (fun () ->
          let victim =
            if crash_leader then Erwin_common.leader cluster
            else List.nth cluster.replicas 1
          in
          Erwin_common.crash_replica cluster victim);
      wait_for (fun () -> !writers_done = 4);
      checki "writers all finished" 4 !writers_done;
      Engine.sleep (Engine.ms 10);
      checks cluster acked (client ());
      Engine.stop ())

let standard_checks cluster acked (log : Log_api.t) =
  checki "view advanced" 1 cluster.Erwin_common.view;
  checki "one replica removed" 2 (List.length cluster.Erwin_common.replicas);
  let tail = log.check_tail () in
  let records = log.read ~from:0 ~len:tail in
  (* every acked record exactly once, no duplicates *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (r : Types.record) ->
      if not (Types.is_no_op r) then begin
        checkb ("no duplicate " ^ r.data) false (Hashtbl.mem seen r.data);
        Hashtbl.replace seen r.data ()
      end)
    records;
  Hashtbl.iter
    (fun data () ->
      checkb ("acked record survives: " ^ data) true (Hashtbl.mem seen data))
    acked;
  (* timings were recorded *)
  match cluster.Erwin_common.reconfig_log with
  | t :: _ ->
    checkb "detect dominates (ZK session timeout)" true
      (t.Erwin_common.detect >= Engine.ms 5);
    checkb "total is tens of ms" true (t.Erwin_common.total < Engine.ms 60)
  | [] -> Alcotest.fail "no reconfiguration recorded"

let test_m_follower_crash () =
  run_with_crash ~mode:`M ~crash_leader:false ~checks:standard_checks ()

let test_m_leader_crash () =
  run_with_crash ~mode:`M ~crash_leader:true ~checks:standard_checks ()

let test_st_follower_crash () =
  run_with_crash ~mode:`St ~crash_leader:false ~checks:standard_checks ()

let test_st_leader_crash () =
  run_with_crash ~mode:`St ~crash_leader:true ~checks:standard_checks ()

(* The heart of section 4.5: the stable prefix read before a leader crash
   must be byte-identical after recovery. *)
let test_stable_prefix_immutable () =
  Engine.run (fun () ->
      let cfg = { Config.default with Config.nshards = 2 } in
      let cluster = Erwin_m.create ~cfg () in
      let log = Erwin_m.client cluster in
      for i = 1 to 100 do
        ignore (log.append ~size:256 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      let stable_before = cluster.stable_gp in
      checkb "something stable" true (stable_before > 0);
      let prefix_before = log.read ~from:0 ~len:stable_before in
      (* More in-flight appends, then kill the leader mid-stream. *)
      Engine.spawn (fun () ->
          let log2 = Erwin_m.client cluster in
          for i = 101 to 300 do
            ignore (log2.append ~size:256 ~data:(string_of_int i))
          done);
      Engine.after (Engine.us 300) (fun () ->
          Erwin_common.crash_replica cluster (Erwin_common.leader cluster));
      Engine.sleep (Engine.ms 50);
      checki "view advanced" 1 cluster.view;
      let prefix_after = log.read ~from:0 ~len:stable_before in
      Alcotest.(check (list string))
        "stable prefix unchanged"
        (List.map (fun (r : Types.record) -> r.data) prefix_before)
        (List.map (fun (r : Types.record) -> r.data) prefix_after);
      Engine.stop ())

let test_sealed_view_rejects_appends () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let ep = Erwin_common.new_endpoint cluster ~name:"probe" in
      (* Seal view 0 everywhere by hand. *)
      List.iter
        (fun r ->
          match
            Ll_net.Rpc.call ep ~dst:(Seq_replica.node_id r)
              (Proto.Sr_seal { view = 0 })
          with
          | Proto.R_ok -> ()
          | _ -> Alcotest.fail "seal failed")
        cluster.replicas;
      let rid = { Types.Rid.client = 1; seq = 1 } in
      let entry = Types.Data (Types.record ~rid ~size:64 ()) in
      (match
         Ll_net.Rpc.call ep
           ~dst:(Seq_replica.node_id (Erwin_common.leader cluster))
           (Proto.append_one ~view:0 ~track:false entry)
       with
      | Proto.R_append { ok; _ } -> checkb "append rejected in sealed view" false ok
      | _ -> Alcotest.fail "bad response");
      Engine.stop ())

let test_unavailable_beyond_f () =
  (* Crashing two of three replicas: the system must refuse appends
     rather than lose data (remains safely unavailable). *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:64 ~data:"before");
      Erwin_common.crash_replica cluster (List.nth cluster.replicas 1);
      Engine.sleep (Engine.ms 1);
      Erwin_common.crash_replica cluster (List.nth cluster.replicas 2);
      let acked = ref false in
      Engine.spawn (fun () ->
          if log.append ~size:64 ~data:"during" then acked := true);
      Engine.sleep (Engine.ms 60);
      (* Either the append is still blocked, or the double view change
         completed with a single-replica configuration that accepted it.
         The invariant is about what is readable: the acked prefix. *)
      if not !acked then checkb "unacked append invisible" true true;
      Engine.stop ())

let test_reconfig_timings_breakdown () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      Engine.spawn (fun () ->
          for i = 1 to 500 do
            ignore (log.append ~size:128 ~data:(string_of_int i))
          done);
      Engine.after (Engine.ms 1) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 2));
      Engine.sleep (Engine.ms 60);
      (match cluster.reconfig_log with
      | t :: _ ->
        (* Core recovery (seal+flush) is sub-millisecond; control-plane
           steps dominate — the paper's figure 17(b) shape. *)
        checkb "seal+flush < 1.5ms" true
          (t.Erwin_common.seal + t.Erwin_common.flush < Engine.us 1500);
        checkb "detect > seal+flush" true
          (t.Erwin_common.detect > t.Erwin_common.seal + t.Erwin_common.flush);
        checkb "new view includes ZK write (>= 1ms)" true
          (t.Erwin_common.new_view >= Engine.ms 1)
      | [] -> Alcotest.fail "no reconfig recorded");
      Engine.stop ())

let test_append_latency_recovers_after_reconfig () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:64 ~data:"w");
      Engine.after (Engine.ms 1) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 1));
      Engine.sleep (Engine.ms 50);
      (* post-recovery appends are 1RTT again *)
      ignore (log.append ~size:64 ~data:"warm2");
      let t0 = Engine.now () in
      ignore (log.append ~size:64 ~data:"x");
      checkb "fast again" true (Engine.now () - t0 < Engine.us 12);
      Engine.stop ())

let test_straggler_removal () =
  (* Section 5.5: a persistently slow sequencing replica inflates append
     tail latency (appends wait for all replicas); reconfiguring it out
     restores fast appends and loses nothing. *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:256 ~data:"warm");
      let straggler = List.nth cluster.replicas 2 in
      Ll_net.Fabric.set_extra_delay (Seq_replica.node straggler) (Engine.ms 1);
      let t0 = Engine.now () in
      ignore (log.append ~size:256 ~data:"slowed");
      let slowed = Engine.now () - t0 in
      checkb "straggler inflates append latency" true (slowed >= Engine.ms 2);
      Reconfig.remove_replica cluster straggler;
      checki "removed from configuration" 2 (List.length cluster.replicas);
      checkb "straggler is gone" true
        (not
           (List.exists
              (fun r -> Seq_replica.name r = Seq_replica.name straggler)
              cluster.replicas));
      ignore (log.append ~size:256 ~data:"fast again");
      let t0 = Engine.now () in
      ignore (log.append ~size:256 ~data:"check");
      checkb "latency restored" true (Engine.now () - t0 < Engine.us 12);
      (* Everything acked before and after survives. *)
      Engine.sleep (Engine.ms 5);
      let tail = log.check_tail () in
      checki "all four appends durable" 4 tail;
      let records = log.read ~from:0 ~len:tail in
      checki "all readable" 4 (List.length records);
      Engine.stop ())

let test_outlier_eviction () =
  (* Gray-failure counterpart of straggler removal: nobody calls
     [Reconfig.remove_replica] by hand. The latency-outlier monitor's
     probes must notice a fail-slow follower (alive, heartbeating, just
     slow) and reconfigure it out on their own. *)
  Engine.run (fun () ->
      let cfg = { Config.default with Config.outlier_detection = true } in
      let cluster = Erwin_m.create ~cfg () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:256 ~data:"warm");
      (* Let the monitor gather a healthy baseline on all replicas. *)
      Engine.sleep (Engine.ms 8);
      checki "no eviction while healthy" 3 (List.length cluster.replicas);
      let victim = List.nth cluster.replicas 2 in
      let victim_name = Seq_replica.name victim in
      Ll_net.Fabric.set_extra_delay (Seq_replica.node victim) (Engine.ms 1);
      wait_for ~timeout:(Engine.ms 100) (fun () ->
          List.length cluster.replicas = 2);
      checki "fail-slow replica evicted" 2 (List.length cluster.replicas);
      checki "eviction is a view change" 1 cluster.view;
      checkb "victim is gone" true
        (not
           (List.exists
              (fun r -> Seq_replica.name r = victim_name)
              cluster.replicas));
      (* Post-eviction appends are fast again and nothing acked is lost. *)
      ignore (log.append ~size:256 ~data:"after");
      let t0 = Engine.now () in
      ignore (log.append ~size:256 ~data:"check");
      checkb "latency restored" true (Engine.now () - t0 < Engine.us 12);
      Engine.sleep (Engine.ms 5);
      let tail = log.check_tail () in
      checki "all three appends durable" 3 tail;
      checki "all readable" 3 (List.length (log.read ~from:0 ~len:tail));
      Engine.stop ())

let test_partition_stalls_then_heals () =
  (* A client partitioned from one sequencing replica cannot complete
     appends (writes go to all replicas); the replica is alive, so no
     view change fires — and after healing, the same rid commits exactly
     once (retry + duplicate filter). *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:128 ~data:"before");
      (* The client handle's node was created after controller/orderer
         endpoints; find it as the highest node id by appending once and
         partitioning the follower from everyone EXCEPT other servers is
         complex — instead partition follower <-> all client-range nodes
         by dropping traffic between the follower and the world except
         the controller/ZK path, approximated here by partitioning the
         follower from the specific client node. *)
      let follower = List.nth cluster.replicas 2 in
      let fid = Seq_replica.node_id follower in
      (* Partition follower from every node except its ZK session (which
         is out-of-band): appends stall, no reconfiguration triggers. *)
      let nclients = 64 in
      for other = 0 to nclients + 20 do
        if other <> fid then
          Ll_net.Fabric.partition cluster.fabric fid other
      done;
      let second_done = ref false in
      Engine.spawn (fun () ->
          ignore (log.append ~size:128 ~data:"during");
          second_done := true);
      Engine.sleep (Engine.ms 50);
      checkb "append stalled by partition" false !second_done;
      checki "no view change (replica alive)" 0 cluster.view;
      for other = 0 to nclients + 20 do
        if other <> fid then Ll_net.Fabric.heal cluster.fabric fid other
      done;
      Engine.sleep (Engine.ms 60);
      checkb "append completed after heal" true !second_done;
      Engine.sleep (Engine.ms 5);
      let tail = log.check_tail () in
      checki "exactly two records (no duplicate from retries)" 2 tail;
      Engine.stop ())

let test_two_sequential_failures () =
  (* Crash one replica, recover through a view change, then crash another:
     the second view change must also work (now 3 -> 2 -> 1 replicas). *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      let writer_done = ref false in
      Engine.spawn (fun () ->
          let w = Erwin_m.client cluster in
          for i = 1 to 400 do
            ignore (w.append ~size:128 ~data:(string_of_int i))
          done;
          writer_done := true);
      Engine.after (Engine.ms 2) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 1));
      Engine.after (Engine.ms 40) (fun () ->
          Erwin_common.crash_replica cluster (Erwin_common.leader cluster));
      Engine.sleep (Engine.ms 120);
      checkb "writer finished across two view changes" true !writer_done;
      checki "two view changes" 2 cluster.view;
      checki "single replica left" 1 (List.length cluster.replicas);
      let tail = log.check_tail () in
      checki "all durable" 400 tail;
      checki "all readable" 400 (List.length (log.read ~from:0 ~len:tail));
      Engine.stop ())

let test_chaos () =
  (* Everything at once: 2% message loss the whole run, a straggling
     follower, and a crash of the other follower mid-workload. Acked
     records must all survive, exactly once, in a readable log. *)
  Engine.run ~seed:1234 (fun () ->
      let cluster = Erwin_m.create ~cfg:{ Config.default with nshards = 2 } () in
      Ll_net.Fabric.set_drop_probability cluster.fabric 0.02;
      Ll_net.Fabric.set_extra_delay
        (Seq_replica.node (List.nth cluster.replicas 1))
        (Engine.us 200);
      let acked = Hashtbl.create 256 in
      let writers_done = ref 0 in
      for w = 0 to 2 do
        let log = Erwin_m.client cluster in
        Engine.spawn (fun () ->
            for i = 1 to 80 do
              let data = Printf.sprintf "%d-%d" w i in
              if log.append ~size:256 ~data then Hashtbl.replace acked data ()
            done;
            incr writers_done)
      done;
      Engine.after (Engine.ms 3) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 2));
      wait_for ~timeout:(Engine.sec 5) (fun () -> !writers_done = 3);
      checki "writers survived the chaos" 3 !writers_done;
      Ll_net.Fabric.set_drop_probability cluster.fabric 0.0;
      Engine.sleep (Engine.ms 100);
      let log = Erwin_m.client cluster in
      let tail = log.check_tail () in
      let records = log.read ~from:0 ~len:tail in
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (r : Types.record) ->
          checkb ("unique " ^ r.data) false (Hashtbl.mem seen r.data);
          Hashtbl.replace seen r.data ())
        records;
      Hashtbl.iter
        (fun data () -> checkb ("survived " ^ data) true (Hashtbl.mem seen data))
        acked;
      checki "view advanced exactly once" 1 cluster.view;
      Engine.stop ())

(* Bounded state: a fan-out whose join times out must take its
   unanswered calls out of the pending table. 50 client endpoints append
   while sequencing replica 1 crashes; each one's first append after the
   crash waits out the timeout on the dead replica. Once they are done
   and a 200 ms drain has passed, no endpoint may still hold a pending
   call. *)
let test_fanout_timeout_leaves_no_pending () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let eps =
        List.init 50 (fun i ->
            Erwin_common.new_endpoint cluster
              ~name:(Printf.sprintf "pending-client%d" i))
      in
      let done_ = ref 0 in
      List.iteri
        (fun cid ep ->
          Engine.spawn (fun () ->
              for seq = 1 to 20 do
                let r =
                  Types.record
                    ~rid:{ Types.Rid.client = 1000 + cid; seq }
                    ~size:128 ()
                in
                Client_core.append_entry cluster ep ~track:false
                  (Types.Data r);
                Engine.sleep (Engine.us 100)
              done;
              incr done_))
        eps;
      Engine.after (Engine.ms 1) (fun () ->
          Erwin_common.crash_replica cluster (List.nth cluster.replicas 1));
      wait_for ~timeout:(Engine.sec 1) (fun () -> !done_ = 50);
      checki "every client finished" 50 !done_;
      checkb "the crash was reconfigured" true (cluster.Erwin_common.view >= 1);
      Engine.sleep (Engine.ms 200);
      checki "no pending calls left" 0
        (List.fold_left (fun acc ep -> acc + Ll_net.Rpc.pending_calls ep) 0 eps);
      Engine.stop ())

(* A survivor whose seal is lost and that then crashes does not stall
   the view change: the next seal round skips it, and the new view
   leaves it out, instead of resending to it for 50 rounds. *)
let test_survivor_crash_during_seal () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:256 ~data:"warm");
      let r0 = List.nth cluster.replicas 0
      and r1 = List.nth cluster.replicas 1
      and r2 = List.nth cluster.replicas 2 in
      (* Every first-round seal is lost. *)
      Ll_net.Fabric.set_drop_probability cluster.fabric 1.0;
      Engine.spawn (fun () -> Reconfig.remove_replica cluster r2);
      Engine.sleep (Engine.us 1);
      Ll_net.Fabric.set_drop_probability cluster.fabric 0.0;
      Engine.sleep (Engine.ms 5);
      Erwin_common.crash_replica cluster r1;
      let t0 = Engine.now () in
      while
        (cluster.view = 0 || cluster.reconfiguring)
        && Engine.now () - t0 < Engine.ms 100
      do
        Engine.sleep (Engine.us 100)
      done;
      checkb "view change done by the second seal round" true
        (Engine.now () - t0 < Engine.ms 10);
      checkb "only the live survivor is in the view" true
        (List.map Seq_replica.name cluster.replicas = [ Seq_replica.name r0 ]);
      checkb "appends go through again" true
        (log.append ~size:256 ~data:"after");
      Engine.stop ())

(* The recovery replica (the first survivor) crashes while the view
   change that removes a straggler waits on its state: the view change
   moves on to the next survivor at that call's timeout, instead of
   retrying the dead one for 50 rounds and then raising. *)
let test_recovery_crash_during_removal () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create () in
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:256 ~data:"warm");
      let r0 = List.nth cluster.replicas 0
      and r1 = List.nth cluster.replicas 1
      and r2 = List.nth cluster.replicas 2 in
      (* r0 is slow: its seal acks at about 4 ms, and the state request
         that follows is still on its way when r0 crashes at 5 ms. *)
      Ll_net.Fabric.set_extra_delay (Seq_replica.node r0) (Engine.ms 2);
      Engine.spawn (fun () -> Reconfig.remove_replica cluster r2);
      Engine.sleep (Engine.ms 5);
      Erwin_common.crash_replica cluster r0;
      let t0 = Engine.now () in
      while
        (cluster.view = 0 || cluster.reconfiguring)
        && Engine.now () - t0 < Engine.ms 100
      do
        Engine.sleep (Engine.us 100)
      done;
      checkb "view change done after one state timeout" true
        (Engine.now () - t0 < Engine.ms 20);
      checkb "only the live survivor is in the view" true
        (List.map Seq_replica.name cluster.replicas = [ Seq_replica.name r1 ]);
      checkb "appends go through again" true
        (log.append ~size:256 ~data:"after");
      checki "both appends readable" 2
        (List.length (log.read ~from:0 ~len:(log.check_tail ())));
      Engine.stop ())

(* A resent view install (the first ack was lost) is acked without
   being applied again: the entries accepted in the new view stay live,
   and the view is installed once. *)
let test_resent_install_is_idempotent () =
  Engine.run (fun () ->
      let cfg = Config.default in
      let fabric = Ll_net.Fabric.create ~link:cfg.Config.link () in
      let r = Seq_replica.create ~cfg ~fabric ~name:"r0" in
      let ep =
        Ll_net.Rpc.endpoint fabric (Ll_net.Fabric.add_node fabric ~name:"c" ())
      in
      let call req =
        Ll_net.Rpc.call ep ~dst:(Seq_replica.node_id r)
          ~size:(Proto.req_size req) req
      in
      let installs = ref 0 in
      Probe.reset ();
      Probe.subscribe (function
        | Probe.View_installed _ -> incr installs
        | _ -> ());
      let install =
        Proto.Sr_install_view { new_view = 1; frontiers = [ 0 ]; flushed = [] }
      in
      checkb "install acked" true (call install = Proto.R_ok);
      let e =
        Types.Data
          (Types.record ~rid:{ Types.Rid.client = 1; seq = 1 } ~size:128 ())
      in
      (match call (Proto.append_one ~view:1 ~track:false e) with
      | Proto.R_append { ok; _ } -> checkb "appended in view 1" true ok
      | _ -> Alcotest.fail "bad append response");
      checkb "resend acked" true (call install = Proto.R_ok);
      Probe.reset ();
      checki "entry still live" 1 (Seq_log.live_count (Seq_replica.log r));
      checki "view installed once" 1 !installs;
      checki "view" 1 (Seq_replica.view r);
      Engine.stop ())

let () =
  Alcotest.run "reconfig"
    [
      ( "view-changes",
        [
          Alcotest.test_case "erwin-m follower crash" `Quick
            test_m_follower_crash;
          Alcotest.test_case "erwin-m leader crash" `Quick test_m_leader_crash;
          Alcotest.test_case "erwin-st follower crash" `Quick
            test_st_follower_crash;
          Alcotest.test_case "erwin-st leader crash" `Quick
            test_st_leader_crash;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "stable prefix immutable" `Quick
            test_stable_prefix_immutable;
          Alcotest.test_case "sealed view rejects appends" `Quick
            test_sealed_view_rejects_appends;
          Alcotest.test_case "safely unavailable beyond f" `Quick
            test_unavailable_beyond_f;
          Alcotest.test_case "no pending calls after a crash" `Quick
            test_fanout_timeout_leaves_no_pending;
        ] );
      ( "timing",
        [
          Alcotest.test_case "breakdown shape (fig 17b)" `Quick
            test_reconfig_timings_breakdown;
          Alcotest.test_case "latency recovers" `Quick
            test_append_latency_recovers_after_reconfig;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "straggler removal (s5.5)" `Quick
            test_straggler_removal;
          Alcotest.test_case "latency-outlier eviction" `Quick
            test_outlier_eviction;
          Alcotest.test_case "partition stalls then heals" `Quick
            test_partition_stalls_then_heals;
          Alcotest.test_case "two sequential failures" `Quick
            test_two_sequential_failures;
          Alcotest.test_case "survivor crash during seal" `Quick
            test_survivor_crash_during_seal;
          Alcotest.test_case "recovery replica crash during removal" `Quick
            test_recovery_crash_during_removal;
          Alcotest.test_case "resent view install is idempotent" `Quick
            test_resent_install_is_idempotent;
          Alcotest.test_case "chaos: loss + straggler + crash" `Quick
            test_chaos;
        ] );
    ]
