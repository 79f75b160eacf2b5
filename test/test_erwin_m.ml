(* End-to-end tests for Erwin-m: the 1 RTT append path, background
   ordering, stable-gp gated reads, checkTail, trim, appendSync, and the
   fast/slow read paths. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_cluster ?(cfg = Config.default) f =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg () in
      f cluster;
      Engine.stop ())

let test_append_read_roundtrip () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 50 do
        checkb "append acked" true (log.append ~size:512 ~data:(string_of_int i))
      done;
      let records = log.read ~from:0 ~len:50 in
      checki "all read" 50 (List.length records);
      List.iteri
        (fun i (r : Types.record) ->
          Alcotest.(check string) "in order" (string_of_int (i + 1)) r.data)
        records)

let test_append_is_1rtt () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:100 ~data:"warm");
      let t0 = Engine.now () in
      ignore (log.append ~size:100 ~data:"x");
      let d = Engine.now () - t0 in
      (* 1 RTT + service; far below a Corfu-style 4 RTT (~30 us). *)
      checkb "1RTT-ish" true (d < Engine.us 12))

let test_check_tail_counts_unordered () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 10 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      (* Tail includes records not yet bound (durable count). *)
      checki "tail" 10 (log.check_tail ());
      checkb "stable lags tail initially" true (cluster.stable_gp <= 10))

let test_background_ordering_advances_stable () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 20 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      checki "all stable after idle" 20 cluster.stable_gp;
      (* Sequencing replicas drained. *)
      List.iter
        (fun r -> checki "replica log empty" 0 (Seq_log.live_count (Seq_replica.log r)))
        cluster.replicas)

let test_fast_vs_slow_read () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 5 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      (* Slow path: read immediately, before background ordering. *)
      let t0 = Engine.now () in
      ignore (log.read ~from:0 ~len:5);
      let slow = Engine.now () - t0 in
      checkb "slow path waited for ordering" true (slow >= Engine.us 10);
      (* Fast path: same positions again, now stable. *)
      let t0 = Engine.now () in
      ignore (log.read ~from:0 ~len:5);
      let fast = Engine.now () - t0 in
      checkb "fast path quicker" true (fast < slow))

let test_records_land_on_right_shards () =
  let cfg = { Config.default with nshards = 3 } in
  with_cluster ~cfg (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 30 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      List.iter
        (fun shard ->
          List.iter
            (fun (gp, _) ->
              checki "placement p mod n" (Shard.shard_id shard)
                (gp mod 3))
            (Shard.bound_positions shard))
        cluster.shards)

let test_append_sync_positions () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      let f = Option.get log.append_sync in
      let p1 = f ~size:64 ~data:"a" in
      let p2 = f ~size:64 ~data:"b" in
      checki "first" 0 p1;
      checki "second" 1 p2;
      (* and the records are readable at those positions *)
      (match log.read ~from:p2 ~len:1 with
      | [ r ] -> Alcotest.(check string) "record at pos" "b" r.data
      | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)))

let test_trim () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 10 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      checkb "trim ok" true (log.trim ~upto:5);
      let records = log.read ~from:5 ~len:5 in
      checki "suffix intact" 5 (List.length records);
      let records = log.read ~from:0 ~len:10 in
      checki "prefix gone" 5 (List.length records))

let test_concurrent_writers_unique_positions () =
  with_cluster (fun cluster ->
      let n_writers = 8 in
      let done_ = ref 0 in
      for w = 0 to n_writers - 1 do
        let log = Erwin_m.client cluster in
        Engine.spawn (fun () ->
            for i = 1 to 25 do
              ignore (log.append ~size:64 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 50) (fun () -> !done_ = n_writers));
      Engine.sleep (Engine.ms 5);
      let log = Erwin_m.client cluster in
      let tail = log.check_tail () in
      checki "all durable" (n_writers * 25) tail;
      let records = log.read ~from:0 ~len:tail in
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (r : Types.record) ->
          checkb ("unique " ^ r.data) false (Hashtbl.mem seen r.data);
          Hashtbl.replace seen r.data ())
        records;
      checki "every record present" tail (Hashtbl.length seen))

let test_per_client_fifo () =
  (* A single client's appends appear in issue order (its appends are
     sequential, so this is implied by real-time ordering). *)
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 40 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 3);
      let records = log.read ~from:0 ~len:40 in
      let rec increasing last = function
        | [] -> true
        | (r : Types.record) :: rest ->
          let v = int_of_string r.data in
          v > last && increasing v rest
      in
      checkb "fifo per client" true (increasing 0 records))

let test_batching_stats () =
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      for i = 1 to 30 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 2);
      checkb "batches recorded" true (cluster.batches > 0);
      checkb "avg batch positive" true (Erwin_common.avg_batch cluster > 0.0))

let test_big_burst_backpressure () =
  (* A burst larger than the sequencing capacity must still complete, via
     backpressure, without losing records. *)
  let cfg = { Config.default with seq_capacity = 64 } in
  with_cluster ~cfg (fun cluster ->
      let n_writers = 4 in
      let done_ = ref 0 in
      for w = 0 to n_writers - 1 do
        let log = Erwin_m.client cluster in
        Engine.spawn (fun () ->
            for i = 1 to 100 do
              ignore (log.append ~size:64 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore
        (Waitq.await_timeout wq ~timeout:(Engine.ms 200) (fun () ->
             !done_ = n_writers));
      checki "all writers finished" n_writers !done_;
      Engine.sleep (Engine.ms 5);
      let log = Erwin_m.client cluster in
      checki "all durable" 400 (log.check_tail ()))

let test_append_message_complexity () =
  (* Structural check of the 1 RTT claim: in a quiet cluster, one append
     costs exactly one request and one response per sequencing replica —
     2 x 3 messages — and nothing touches the shards in the critical
     path. *)
  with_cluster (fun cluster ->
      let log = Erwin_m.client cluster in
      ignore (log.append ~size:128 ~data:"warm");
      Engine.sleep (Engine.ms 2);
      (* Quiesce: nothing unordered, orderer idle. *)
      let before = Ll_net.Fabric.messages_sent cluster.fabric in
      let replica_in_before =
        List.map
          (fun r -> Ll_net.Fabric.node_messages_in (Seq_replica.node r))
          cluster.replicas
      in
      ignore (log.append ~size:128 ~data:"counted");
      let after = Ll_net.Fabric.messages_sent cluster.fabric in
      checki "exactly 6 messages (3 requests + 3 responses)" 6 (after - before);
      List.iter2
        (fun r n0 ->
          checki
            (Seq_replica.name r ^ " got exactly one request")
            (n0 + 1)
            (Ll_net.Fabric.node_messages_in (Seq_replica.node r)))
        cluster.replicas replica_in_before)

let test_corfu_append_message_complexity () =
  (* Corfu's eager binding costs 2 x (1 sequencer + k chain hops). *)
  Engine.run (fun () ->
      let corfu =
        Ll_corfu.Corfu.create
          ~config:{ Ll_corfu.Corfu.default_config with replicas_per_shard = 3 }
          ()
      in
      let log = Ll_corfu.Corfu.client corfu in
      ignore (log.append ~size:128 ~data:"warm");
      Engine.sleep (Engine.ms 1);
      let before = Ll_corfu.Corfu.messages_sent corfu in
      ignore (log.append ~size:128 ~data:"counted");
      (* 1 sequencer roundtrip + 3 serial chain roundtrips = 8 messages,
         4 RTTs — vs Erwin's single parallel RTT. *)
      checki "8 messages (4 RTTs)" 8 (Ll_corfu.Corfu.messages_sent corfu - before);
      Engine.stop ())

let test_whole_system_determinism () =
  (* Two runs with the same seed produce the identical log — the property
     every benchmark number in EXPERIMENTS.md rests on. *)
  let snapshot () =
    let result = ref ([], 0) in
    Engine.run ~seed:2024 (fun () ->
        let cluster = Erwin_m.create ~cfg:{ Config.default with nshards = 2 } () in
        let done_ = ref 0 in
        for w = 0 to 3 do
          let log = Erwin_m.client cluster in
          Engine.spawn (fun () ->
              for i = 1 to 50 do
                ignore (log.append ~size:256 ~data:(Printf.sprintf "%d.%d" w i));
                if i mod 7 = 0 then Engine.sleep (Engine.us (w * 3))
              done;
              incr done_)
        done;
        let wq = Waitq.create () in
        ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 100) (fun () -> !done_ = 4));
        Engine.sleep (Engine.ms 5);
        let log = Erwin_m.client cluster in
        let tail = log.check_tail () in
        let records = log.read ~from:0 ~len:tail in
        result :=
          (List.map (fun (r : Types.record) -> r.data) records, cluster.stable_gp);
        Engine.stop ());
    !result
  in
  let a = snapshot () in
  let b = snapshot () in
  checkb "identical logs across runs" true (a = b)

(* With demand reads on, the idle orderer waits on [order_wake] with a
   timeout every ordering interval. A timed-out wait must not stay queued
   until a broadcast: an idle cluster used to gain one dead waiter per
   interval (5 075 after 100 ms). *)
let test_idle_order_wake_bounded () =
  with_cluster ~cfg:{ Config.default with read_demand = true } (fun cluster ->
      Engine.sleep (Engine.ms 100);
      checkb "at most one waiter" true
        (Waitq.waiters cluster.Erwin_common.order_wake <= 1))

(* What one client handle keeps alive, over 1 000 handles: the largest
   worlds the bench runs (10^4 producers on [append-ladder], 10^6 on the
   open-loop mega row) are bounded by heap per endpoint. Live words are
   counted after a full major collection. A used handle has made one
   append that is bound and pushed, so its count includes the record the
   shards store. *)
let test_client_handle_footprint () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let n = 1000 in
  let idle = ref 0.0 and used = ref 0.0 in
  with_cluster (fun cluster ->
      Engine.sleep (Engine.ms 1);
      let w0 = live () in
      let handles = Array.init n (fun _ -> Erwin_m.client cluster) in
      let w1 = live () in
      Array.iter
        (fun (h : Log_api.t) -> ignore (h.append ~size:64 ~data:"x"))
        handles;
      Engine.sleep (Engine.ms 5);
      checki "every append bound" n cluster.stable_gp;
      let w2 = live () in
      idle := float_of_int (w1 - w0) /. float_of_int n;
      used := float_of_int (w2 - w0) /. float_of_int n;
      ignore (Sys.opaque_identity handles));
  Printf.printf "words per handle: idle %.1f, used %.1f\n%!" !idle !used;
  checkb "idle handle <= 110 words" true (!idle <= 110.0);
  checkb "used handle <= 175 words" true (!used <= 175.0)

let () =
  Alcotest.run "erwin-m"
    [
      ( "basics",
        [
          Alcotest.test_case "append/read roundtrip" `Quick
            test_append_read_roundtrip;
          Alcotest.test_case "1RTT append" `Quick test_append_is_1rtt;
          Alcotest.test_case "checkTail counts unordered" `Quick
            test_check_tail_counts_unordered;
          Alcotest.test_case "background ordering advances stable" `Quick
            test_background_ordering_advances_stable;
          Alcotest.test_case "fast vs slow read" `Quick test_fast_vs_slow_read;
          Alcotest.test_case "placement p mod n" `Quick
            test_records_land_on_right_shards;
          Alcotest.test_case "appendSync returns positions" `Quick
            test_append_sync_positions;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "idle order_wake stays bounded" `Quick
            test_idle_order_wake_bounded;
          Alcotest.test_case "client handle footprint" `Quick
            test_client_handle_footprint;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "unique positions under concurrency" `Quick
            test_concurrent_writers_unique_positions;
          Alcotest.test_case "per-client fifo" `Quick test_per_client_fifo;
          Alcotest.test_case "batching stats" `Quick test_batching_stats;
          Alcotest.test_case "backpressure burst" `Quick
            test_big_burst_backpressure;
          Alcotest.test_case "append = 1 RTT (message count)" `Quick
            test_append_message_complexity;
          Alcotest.test_case "corfu append = 4 RTTs (message count)" `Quick
            test_corfu_append_message_complexity;
          Alcotest.test_case "whole-system determinism" `Quick
            test_whole_system_determinism;
        ] );
    ]
