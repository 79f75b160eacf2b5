(* Tests for the demand-driven read path: read-triggered eager binding
   (a parked tail read wakes the lazy orderer via Sr_order_demand),
   parked readers surviving a sequencing-layer view change, replica read
   scale-out (round-robin service, backup forwarding for unbound
   positions, stable piggybacking), and scan readahead. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checkstr = Alcotest.(check string)

(* A deliberately lazy ordering cadence: without demand binding, a read
   just past stable waits ~20 ms for the next background pass. *)
let lazy_cfg ~read_demand =
  {
    Config.default with
    Config.nshards = 2;
    order_interval = Engine.ms 20;
    read_demand;
  }

let append_n (log : Log_api.t) n =
  for i = 1 to n do
    checkb "acked" true (log.append ~size:256 ~data:(string_of_int i))
  done

(* --- read-triggered eager binding --- *)

let test_demand_wakes_parked_read () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(lazy_cfg ~read_demand:true) () in
      let log = Erwin_m.client cluster in
      append_n log 5;
      let t0 = Engine.now () in
      (match log.read ~from:4 ~len:1 with
      | [ r ] -> checkstr "tail record" "5" r.Types.data
      | _ -> Alcotest.fail "tail read failed");
      checkb "demand bound well before the 20ms cadence" true
        (Engine.now () - t0 < Engine.ms 2);
      Engine.stop ())

let test_lazy_read_waits_out_cadence () =
  (* Control for the test above: with the knob off, the same read parks
     until the background orderer's next pass. *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(lazy_cfg ~read_demand:false) () in
      let log = Erwin_m.client cluster in
      append_n log 5;
      let t0 = Engine.now () in
      (match log.read ~from:4 ~len:1 with
      | [ r ] -> checkstr "tail record" "5" r.Types.data
      | _ -> Alcotest.fail "tail read failed");
      checkb "lazy read waited for the ordering cadence" true
        (Engine.now () - t0 > Engine.ms 2);
      Engine.stop ())

(* --- parked reader across a seal / view change --- *)

let test_parked_read_woken_by_view_change () =
  (* Cadence far beyond the test horizon, demand off: the only thing
     that can wake the parked read is the view change's recovery flush
     (seal, flush, install, stable broadcast). *)
  Engine.run (fun () ->
      let cfg =
        { Config.default with Config.nshards = 2; order_interval = Engine.ms 500 }
      in
      let cluster = Erwin_m.create ~cfg () in
      let log = Erwin_m.client cluster in
      append_n log 10;
      let got = ref None in
      Engine.spawn ~name:"test.parked-reader" (fun () ->
          got := Some (log.read ~from:9 ~len:1));
      Engine.sleep (Engine.ms 1);
      checkb "read parked past stable" true (!got = None);
      Erwin_common.crash_replica cluster (Erwin_common.leader cluster);
      let deadline = Engine.now () + Engine.ms 100 in
      while !got = None && Engine.now () < deadline do
        Engine.sleep (Engine.ms 1)
      done;
      checki "view advanced" 1 cluster.Erwin_common.view;
      (match !got with
      | Some [ r ] -> checkstr "woken with the right record" "10" r.Types.data
      | Some _ -> Alcotest.fail "parked read returned wrong shape"
      | None -> Alcotest.fail "parked read not woken by the view change");
      Engine.stop ())

let test_demand_survives_view_change () =
  (* Directed test for the orderer's demand max-merge across a view
     change. A demand for positions well past the appended tail is
     parked in the orderer (max-merged into [demand], which lives
     on the cluster record, not in view state) when the leader dies.
     After the reconfiguration, the outstanding demand must neither
     wedge the new ordering passes nor bind anything twice: fresh
     appends bind fast (the surviving demand covers them — no new
     demand is ever sent), and a full scan sees each record exactly
     once. *)
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(lazy_cfg ~read_demand:true) () in
      let log = Erwin_m.client cluster in
      append_n log 5;
      (* Demand far past the tail, straight at the orderer's sink. *)
      let orderer = Option.get cluster.Erwin_common.orderer_node in
      let ep = Erwin_common.new_endpoint cluster ~name:"test.demander" in
      let req = Proto.Sr_order_demand { upto = 40 } in
      (match
         Rpc.call_timeout ep ~dst:orderer ~size:(Proto.req_size req)
           ~timeout:(Engine.ms 5) req
       with
      | Some Proto.R_ok -> ()
      | _ -> Alcotest.fail "demand not accepted");
      checki "demand max-merged" 40 (Erwin_common.demand_for cluster ~log:0);
      Erwin_common.crash_replica cluster (Erwin_common.leader cluster);
      let deadline = Engine.now () + Engine.ms 100 in
      while cluster.Erwin_common.view = 0 && Engine.now () < deadline do
        Engine.sleep (Engine.ms 1)
      done;
      checki "view advanced" 1 cluster.Erwin_common.view;
      checkb "demand survived the view change" true
        (Erwin_common.demand_for cluster ~log:0 = 40);
      (* New-view appends are covered by the surviving demand: a tail
         read binds well before the 20 ms cadence without issuing any
         further demand. *)
      for i = 6 to 10 do
        checkb "acked" true (log.append ~size:256 ~data:(string_of_int i))
      done;
      let t0 = Engine.now () in
      (match log.read ~from:9 ~len:1 with
      | [ r ] -> checkstr "tail record" "10" r.Types.data
      | _ -> Alcotest.fail "tail read failed");
      checkb "parked demand bound the new view's appends fast" true
        (Engine.now () - t0 < Engine.ms 2);
      (* Exactly once: the demand that fired in both views bound each
         position a single time. *)
      let all = log.read ~from:0 ~len:10 in
      checki "scan covers the log exactly" 10 (List.length all);
      List.iteri
        (fun i (r : Types.record) ->
          checkstr "bound once, in order" (string_of_int (i + 1)) r.Types.data)
        all;
      Engine.stop ())

(* --- replica read scale-out --- *)

let test_reads_spread_over_replicas () =
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          Config.nshards = 1;
          shard_backup_count = 2;
          replica_reads = true;
          read_demand = true;
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let log = Erwin_m.client cluster in
      append_n log 30;
      Engine.sleep (Engine.ms 3);
      (* everything bound; stable relayed to the backups *)
      let shard = List.hd cluster.Erwin_common.shards in
      let inbox id =
        Fabric.node_messages_in
          (Fabric.node_by_id cluster.Erwin_common.fabric id)
      in
      let before =
        List.map (fun id -> (id, inbox id)) (Shard.replica_ids shard)
      in
      checki "three replicas" 3 (List.length before);
      for i = 0 to 29 do
        match log.read ~from:i ~len:1 with
        | [ r ] -> checkstr "agrees" (string_of_int (i + 1)) r.Types.data
        | _ -> Alcotest.fail "replica read failed"
      done;
      (* Round-robin: every replica (primary and both backups) served a
         share of the 30 reads. No stable relays run in this window (no
         appends), so the inbox delta is read traffic. *)
      List.iter
        (fun (id, n0) ->
          checkb
            (Printf.sprintf "replica %d served reads" id)
            true
            (inbox id > n0))
        before;
      Engine.stop ())

let test_backup_forwards_unbound_read () =
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          Config.nshards = 1;
          shard_backup_count = 1;
          order_interval = Engine.ms 20;
          replica_reads = true;
          read_demand = true;
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let log = Erwin_m.client cluster in
      append_n log 4;
      (* Position 3 is acked but unbound everywhere (lazy cadence, no
         reads yet). Ask the backup directly: it must forward to the
         primary — which demand-binds — and relay the records back with
         its own stable piggybacked. *)
      let shard = List.hd cluster.Erwin_common.shards in
      let backup = List.hd (Shard.backup_ids shard) in
      let ep = Erwin_common.new_endpoint cluster ~name:"test.reader" in
      let req = Proto.Sh_read { positions = [ 3 ]; stable_hint = 0 } in
      (match
         Rpc.call_timeout ep ~dst:backup ~size:(Proto.req_size req)
           ~timeout:(Engine.ms 50) req
       with
      | Some (Proto.R_records { records = [ (3, r) ]; stable }) ->
        checkstr "forwarded read returns the tail record" "4" r.Types.data;
        checkb "piggybacked stable covers the read" true (stable > 3)
      | Some _ -> Alcotest.fail "backup returned wrong shape"
      | None -> Alcotest.fail "backup read timed out");
      Engine.stop ())

(* --- scan readahead --- *)

let scan ~readahead =
  let out = ref [] in
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          Config.nshards = 3;
          replica_reads = true;
          readahead;
          map_fetch_chunk = 16;
        }
      in
      let cluster = Erwin_st.create ~cfg () in
      let log = Erwin_st.client cluster in
      for i = 1 to 60 do
        checkb "acked" true (log.append ~size:512 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 3);
      let chunks = ref [] in
      let from = ref 0 in
      while !from < 60 do
        let len = min 8 (60 - !from) in
        let records = log.read ~from:!from ~len in
        checki "chunk length" len (List.length records);
        chunks := List.rev_append records !chunks;
        from := !from + len
      done;
      out := List.rev_map (fun (r : Types.record) -> r.Types.data) !chunks;
      Engine.stop ());
  !out

let test_readahead_scan_identical () =
  (* A sequential scan must return exactly the same records whether the
     prefetcher is off or racing ahead of the reader. *)
  let plain = scan ~readahead:0 in
  let ahead = scan ~readahead:16 in
  checki "scan covered the log" 60 (List.length plain);
  Alcotest.(check (list string)) "readahead scan identical" plain ahead

let () =
  Alcotest.run "read_path"
    [
      ( "demand",
        [
          Alcotest.test_case "demand wakes parked read" `Quick
            test_demand_wakes_parked_read;
          Alcotest.test_case "lazy read waits out cadence" `Quick
            test_lazy_read_waits_out_cadence;
          Alcotest.test_case "parked read woken by view change" `Quick
            test_parked_read_woken_by_view_change;
          Alcotest.test_case "demand survives view change" `Quick
            test_demand_survives_view_change;
        ] );
      ( "replica-reads",
        [
          Alcotest.test_case "reads spread over replicas" `Quick
            test_reads_spread_over_replicas;
          Alcotest.test_case "backup forwards unbound read" `Quick
            test_backup_forwards_unbound_read;
        ] );
      ( "readahead",
        [
          Alcotest.test_case "readahead scan identical" `Quick
            test_readahead_scan_identical;
        ] );
    ]
