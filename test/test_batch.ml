(* Group-commit tests: atomic batch admission in Seq_log, multi-entry
   Sr_append requests on a real replica (duplicate filtering, view/seal
   rejection, no half-acks across a seal), and
   end-to-end coalescing through the client-side linger batcher on both
   Erwin systems. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rid c s = { Types.Rid.client = c; seq = s }

let entry ?(size = 128) c s = Types.Data (Types.record ~rid:(rid c s) ~size ())

(* --- Seq_log.append_or_wait with several entries --- *)

let test_batch_partial_duplicates () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:16 in
      ignore (Seq_log.try_append l (entry 1 1));
      checkb "batch admitted" true
        (Seq_log.append_or_wait l
           [ entry 1 1; entry 1 2; entry 1 2 ]
           ~cancel:(fun () -> false));
      (* first entry already live; third is a within-batch duplicate *)
      checki "two live" 2 (Seq_log.live_count l);
      checkb "fresh entry stored" true (Seq_log.mem l (rid 1 2));
      Engine.stop ())

let test_batch_cancelled_appends_nothing () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:16 in
      ignore (Seq_log.try_append l (entry 1 1));
      checkb "cancelled batch refused" false
        (Seq_log.append_or_wait l [ entry 2 1; entry 2 2 ]
           ~cancel:(fun () -> true));
      checki "nothing appended" 1 (Seq_log.live_count l);
      Engine.stop ())

let test_batch_blocks_then_cancels_atomically () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:2 in
      ignore (Seq_log.try_append l (entry 1 1));
      ignore (Seq_log.try_append l (entry 1 2));
      let res = ref `Pending in
      let cancelled = ref false in
      Engine.spawn (fun () ->
          res :=
            if
              Seq_log.append_or_wait l [ entry 2 1; entry 2 2 ]
                ~cancel:(fun () -> !cancelled)
            then `Some
            else `None);
      Engine.sleep (Engine.us 100);
      checkb "blocked while full" true (!res = `Pending);
      cancelled := true;
      Seq_log.kick l;
      Engine.sleep (Engine.us 10);
      checkb "failed as a unit" true (!res = `None);
      checki "nothing appended" 2 (Seq_log.live_count l);
      Engine.stop ())

let test_batch_admitted_whole_once_space_frees () =
  Engine.run (fun () ->
      let l = Seq_log.create ~capacity:2 in
      ignore (Seq_log.try_append l (entry 1 1));
      ignore (Seq_log.try_append l (entry 1 2));
      let res = ref None in
      Engine.spawn (fun () ->
          res :=
            Some
              (Seq_log.append_or_wait l [ entry 2 1; entry 2 2 ]
                 ~cancel:(fun () -> false)));
      Engine.sleep (Engine.us 50);
      checkb "blocked while full" true (!res = None);
      Seq_log.remove_ordered l [ rid 1 1; rid 1 2 ];
      Engine.sleep (Engine.us 10);
      checkb "admitted after gc" true (!res = Some true);
      checki "batch admitted whole" 2 (Seq_log.live_count l);
      Engine.stop ())

(* --- multi-entry Sr_append over the wire --- *)

let with_replica ?(cfg = Config.default) f =
  Engine.run (fun () ->
      let fabric = Fabric.create ~link:cfg.Config.link () in
      let r = Seq_replica.create ~cfg ~fabric ~name:"r0" in
      let node = Fabric.add_node fabric ~name:"probe" () in
      let ep = Rpc.endpoint fabric node in
      f r ep;
      Engine.stop ())

let call r ep req =
  Rpc.call ep ~dst:(Seq_replica.node_id r) ~size:(Proto.req_size req) req

let append_batch ?(view = 0) ?(track = false) r ep entries =
  let tracked = if track then List.map Types.entry_rid entries else [] in
  match call r ep (Proto.Sr_append { view; entries; tracked }) with
  | Proto.R_append { ok; _ } -> ok
  | _ -> Alcotest.fail "bad batch response"

let test_wire_batch_partial_duplicate () =
  with_replica (fun r ep ->
      let log = Seq_replica.log r in
      checkb "fresh batch acked" true
        (append_batch r ep [ entry 1 1; entry 1 2 ]);
      checki "all fresh" 2 (Seq_log.live_count log);
      (* A retried batch with one new record: duplicates ack as success
         and only the new record is appended. *)
      checkb "retry acked" true
        (append_batch r ep [ entry 1 1; entry 1 2; entry 1 3 ]);
      checki "stored once each" 3 (Seq_log.live_count log);
      List.iter
        (fun s -> checkb "rid known" true (Seq_log.known log (rid 1 s)))
        [ 1; 2; 3 ])

let test_wire_batch_wrong_view_and_sealed () =
  with_replica (fun r ep ->
      checkb "stale view refused" false
        (append_batch ~view:3 r ep [ entry 1 1 ]);
      checki "nothing stored" 0 (Seq_log.live_count (Seq_replica.log r));
      ignore (call r ep (Proto.Sr_seal { view = 0 }));
      checkb "sealed refused" false
        (append_batch r ep [ entry 1 1; entry 1 2 ]);
      checki "still nothing" 0 (Seq_log.live_count (Seq_replica.log r)))

let test_wire_batch_seal_while_waiting () =
  (* A batch blocked on capacity when the replica seals must fail as a
     unit: no half-appended batch, no half-ack. *)
  let cfg = { Config.default with seq_capacity = 2 } in
  with_replica ~cfg (fun r ep ->
      checkb "filled" true (append_batch r ep [ entry 1 1 ]);
      let result = ref None in
      Engine.spawn (fun () ->
          result := Some (append_batch r ep [ entry 2 1; entry 2 2 ]));
      Engine.sleep (Engine.us 100);
      checkb "blocked on capacity" true (!result = None);
      ignore (call r ep (Proto.Sr_seal { view = 0 }));
      Engine.sleep (Engine.ms 1);
      (match !result with
      | Some false -> ()
      | Some _ -> Alcotest.fail "batch half-acked across a seal"
      | None -> Alcotest.fail "batch still blocked after seal");
      checki "nothing from the batch stored" 1
        (Seq_log.live_count (Seq_replica.log r)))

let test_wire_batch_tracks_rids () =
  with_replica (fun r ep ->
      checkb "tracked batch acked" true
        (append_batch ~track:true r ep [ entry 3 1; entry 3 2 ]);
      let got = ref (-1) in
      Engine.spawn (fun () ->
          match call r ep (Proto.Sr_wait_ordered { rid = rid 3 2 }) with
          | Proto.R_gp { gp } -> got := gp
          | _ -> ());
      Engine.sleep (Engine.us 50);
      checki "still waiting" (-1) !got;
      Seq_replica.apply_gc r ~frontiers:[ 9 ]
        ~slots:[ (7, rid 3 1); (8, rid 3 2) ];
      Engine.sleep (Engine.us 50);
      checki "woken with position" 8 !got)

(* --- end-to-end coalescing --- *)

let test_erwin_m_coalesces () =
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          nshards = 2;
          linger = Some (Engine.us 20);
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let clients = Array.init 4 (fun _ -> Erwin_m.client cluster) in
      let done_ = ref 0 in
      for c = 0 to 3 do
        for i = 1 to 8 do
          Engine.spawn (fun () ->
              checkb "acked" true
                (clients.(c).Log_api.append ~size:100
                   ~data:(Printf.sprintf "%d.%d" c i));
              incr done_)
        done
      done;
      Engine.sleep (Engine.ms 5);
      checki "all acked" 32 !done_;
      checki "tail" 32 (clients.(0).Log_api.check_tail ());
      checki "read all" 32
        (List.length (clients.(0).Log_api.read ~from:0 ~len:32));
      let flushes, batched =
        match Hashtbl.find_opt cluster.Erwin_common.append_batchers 0 with
        | Some b -> b.Erwin_common.batch_stats ()
        | None -> Alcotest.fail "batcher never created"
      in
      checki "every record went through the batcher" 32 batched;
      checkb "coalesced (>1 record per flush)" true (flushes < batched);
      Engine.stop ())

(* Each log has its own linger batcher: two tenants appending at once
   still coalesce, but every [Sr_append] a replica receives holds one
   log's entries (a spy on each replica's ingress records them and lets
   every request through). *)
let test_batches_single_log () =
  Engine.run (fun () ->
      let cfg =
        { Config.default with nshards = 2; linger = Some (Engine.us 20) }
      in
      let cluster = Erwin_m.create ~cfg () in
      let batches = ref [] in
      List.iter
        (fun r ->
          Rpc.set_ingress (Seq_replica.endpoint r) (fun ~src:_ req ~reply:_ ->
              (match (req : Proto.req) with
              | Sr_append { entries; _ } ->
                batches :=
                  List.sort_uniq Int.compare (List.map Types.entry_log entries)
                  :: !batches
              | _ -> ());
              false))
        cluster.Erwin_common.replicas;
      let done_ = ref 0 in
      List.iter
        (fun log ->
          let h = Erwin_m.client ~log cluster in
          for i = 1 to 8 do
            Engine.spawn (fun () ->
                checkb "acked" true
                  (h.Log_api.append ~size:100 ~data:(string_of_int i));
                incr done_)
          done)
        [ 1; 2 ];
      Engine.sleep (Engine.ms 5);
      checki "all acked" 16 !done_;
      checkb "every batch holds one log" true
        (List.for_all (fun logs -> List.length logs = 1) !batches);
      checkb "both logs batched" true
        (List.mem [ 1 ] !batches && List.mem [ 2 ] !batches);
      checkb "coalesced" true
        (List.length !batches
        < 16 * List.length cluster.Erwin_common.replicas);
      Engine.stop ())

let test_erwin_st_batched_end_to_end () =
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          nshards = 2;
          linger = Some (Engine.us 20);
        }
      in
      let cluster = Erwin_st.create ~cfg () in
      let clients = Array.init 3 (fun _ -> Erwin_st.client cluster) in
      let done_ = ref 0 in
      for c = 0 to 2 do
        for i = 1 to 5 do
          Engine.spawn (fun () ->
              checkb "acked" true
                (clients.(c).Log_api.append ~size:100
                   ~data:(Printf.sprintf "%d.%d" c i));
              incr done_)
        done
      done;
      Engine.sleep (Engine.ms 5);
      checki "all acked" 15 !done_;
      checki "tail" 15 (clients.(0).Log_api.check_tail ());
      checki "read all" 15
        (List.length (clients.(0).Log_api.read ~from:0 ~len:15));
      (* appendSync rides the batcher too (track=true through the batch
         admission) and still resolves to the next position. *)
      (match clients.(0).Log_api.append_sync with
      | Some f -> checki "sync position" 15 (f ~size:64 ~data:"s")
      | None -> Alcotest.fail "erwin-st offers append_sync");
      Engine.stop ())

(* More concurrent writers than the replicas' live-entry bound: a batch
   is admitted whole or not at all, so a flush larger than [seq_capacity]
   would wait forever and every retry would rebuild it. The record
   trigger is capped at the capacity, so every append is acked. *)
let test_batch_capped_at_seq_capacity () =
  Engine.run (fun () ->
      let cfg =
        {
          Config.default with
          linger = Some Config.default_linger;
          seq_capacity = 64;
        }
      in
      let cluster = Erwin_m.create ~cfg () in
      let client = Erwin_m.client cluster in
      let writers = 100 in
      let acked = ref 0 in
      for i = 1 to writers do
        Engine.spawn (fun () ->
            if client.Log_api.append ~size:100 ~data:(string_of_int i) then
              incr acked)
      done;
      let waited = ref 0 in
      while !acked < writers && !waited < 500 do
        Engine.sleep (Engine.ms 1);
        incr waited
      done;
      checki "every append acked" writers !acked;
      Engine.stop ())

let () =
  Alcotest.run "batch"
    [
      ( "seq_log",
        [
          Alcotest.test_case "partial duplicates, per-entry results" `Quick
            test_batch_partial_duplicates;
          Alcotest.test_case "cancelled batch appends nothing" `Quick
            test_batch_cancelled_appends_nothing;
          Alcotest.test_case "blocked batch cancels atomically" `Quick
            test_batch_blocks_then_cancels_atomically;
          Alcotest.test_case "blocked batch admitted whole" `Quick
            test_batch_admitted_whole_once_space_frees;
        ] );
      ( "wire",
        [
          Alcotest.test_case "partial duplicate acks per rid" `Quick
            test_wire_batch_partial_duplicate;
          Alcotest.test_case "wrong view / sealed refused" `Quick
            test_wire_batch_wrong_view_and_sealed;
          Alcotest.test_case "no half-ack across a seal" `Quick
            test_wire_batch_seal_while_waiting;
          Alcotest.test_case "batch registers tracked rids" `Quick
            test_wire_batch_tracks_rids;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "erwin-m coalesces concurrent appends" `Quick
            test_erwin_m_coalesces;
          Alcotest.test_case "a batch holds one log" `Quick
            test_batches_single_log;
          Alcotest.test_case "erwin-st appends + sync via batcher" `Quick
            test_erwin_st_batched_end_to_end;
          Alcotest.test_case "batch capped at seq_capacity" `Quick
            test_batch_capped_at_seq_capacity;
        ] );
    ]
