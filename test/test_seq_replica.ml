(* Direct protocol tests of a sequencing replica: view checks, sealing,
   duplicate filtering over the wire, state transfer, view installation,
   and appendSync tracking. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rid c s = { Types.Rid.client = c; seq = s }

let entry ?(size = 128) c s = Types.Data (Types.record ~rid:(rid c s) ~size ())

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

let append ?(view = 0) ?(track = false) r ep e =
  match call r ep (Proto.append_one ~view ~track e) with
  | Proto.R_append { ok; _ } -> ok
  | _ -> Alcotest.fail "bad append response"

let test_append_ack_and_dedup () =
  with_replica (fun r ep ->
      checkb "accepted" true (append r ep (entry 1 1));
      checkb "duplicate also acked" true (append r ep (entry 1 1));
      checki "stored once" 1 (Seq_log.live_count (Seq_replica.log r)))

let test_wrong_view_rejected () =
  with_replica (fun r ep ->
      checkb "stale view" false (append ~view:7 r ep (entry 1 1));
      checki "nothing stored" 0 (Seq_log.live_count (Seq_replica.log r)))

let test_seal_rejects_then_install_unseals () =
  with_replica (fun r ep ->
      ignore (append r ep (entry 1 1));
      ignore (call r ep (Proto.Sr_seal { view = 0 }));
      checkb "sealed" true (Seq_replica.is_sealed r);
      checkb "rejected while sealed" false (append r ep (entry 1 2));
      (* Install the next view: log cleared, filter retains ordered rids. *)
      (match
         call r ep
           (Proto.Sr_install_view
              { new_view = 1; frontiers = [ 1 ]; flushed = [ (0, rid 1 1) ] })
       with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "install failed");
      checkb "unsealed" false (Seq_replica.is_sealed r);
      checki "view" 1 (Seq_replica.view r);
      checki "gp" 1 (Seq_log.last_ordered_gp (Seq_replica.log r) ~log:0);
      checkb "flushed rid filtered" true (append ~view:1 r ep (entry 1 1));
      checki "still empty (duplicate)" 0 (Seq_log.live_count (Seq_replica.log r));
      checkb "fresh rid accepted" true (append ~view:1 r ep (entry 1 2)))

let test_get_state_returns_unordered () =
  with_replica (fun r ep ->
      ignore (append r ep (entry 1 1));
      ignore (append r ep (entry 2 1));
      match call r ep Proto.Sr_get_state with
      | Proto.R_state { frontiers; entries } ->
        Alcotest.(check (list int)) "gp" [ 0 ] frontiers;
        checki "both entries" 2 (List.length entries)
      | _ -> Alcotest.fail "bad state response")

let test_check_tail_includes_unordered () =
  with_replica (fun r ep ->
      ignore (append r ep (entry 1 1));
      ignore (append r ep (entry 1 2));
      Seq_replica.apply_gc r ~frontiers:[ 1 ] ~slots:[ (0, rid 1 1) ];
      match call r ep (Proto.Sr_check_tail { view = 0; log = 0 }) with
      | Proto.R_tail { ok = true; tail } -> checki "gp + live" 2 tail
      | _ -> Alcotest.fail "bad tail response")

let test_check_tail_rejected_when_sealed () =
  with_replica (fun r ep ->
      ignore (call r ep (Proto.Sr_seal { view = 0 }));
      match call r ep (Proto.Sr_check_tail { view = 0; log = 0 }) with
      | Proto.R_tail { ok; _ } -> checkb "rejected" false ok
      | _ -> Alcotest.fail "bad tail response")

let test_wait_ordered_tracks () =
  with_replica (fun r ep ->
      checkb "tracked append" true (append ~track:true r ep (entry 3 1));
      let got = ref (-1) in
      Engine.spawn (fun () ->
          match call r ep (Proto.Sr_wait_ordered { rid = rid 3 1 }) with
          | Proto.R_gp { gp } -> got := gp
          | _ -> ());
      Engine.sleep (Engine.us 50);
      checki "still waiting" (-1) !got;
      Seq_replica.apply_gc r ~frontiers:[ 43 ] ~slots:[ (42, rid 3 1) ];
      Engine.sleep (Engine.us 50);
      checki "woken with position" 42 !got)

let test_seal_releases_blocked_appends () =
  let cfg = { Config.default with seq_capacity = 1 } in
  with_replica ~cfg (fun r ep ->
      ignore (append r ep (entry 1 1));
      let result = ref None in
      Engine.spawn (fun () -> result := Some (append r ep (entry 1 2)));
      Engine.sleep (Engine.us 100);
      checkb "blocked on capacity" true (!result = None);
      ignore (call r ep (Proto.Sr_seal { view = 0 }));
      Engine.sleep (Engine.ms 1);
      checkb "released with rejection" true (!result = Some false))

(* A one-entry Sr_append costs exactly what a lone record always has, on
   the wire and in replica CPU: this identity keeps every per-record
   schedule unchanged. A batch shares the header and the base charge. *)
let test_append_cost_model () =
  let cfg = Config.default in
  with_replica ~cfg (fun r _ ->
      let ep = Seq_replica.endpoint r in
      let cpu bytes =
        cfg.Config.seq_base_ns
        + int_of_float (cfg.Config.seq_per_byte_ns *. float_of_int bytes)
      in
      let e = entry ~size:128 1 1 in
      let wire = Types.entry_wire_size e in
      let one = Proto.append_one ~view:0 ~track:true e in
      checki "one-entry request size" (wire + 16) (Proto.req_size one);
      checki "append response size" 16
        (Proto.resp_size (Proto.R_append { ok = true; view = 0 }));
      checki "one-entry service time" (cpu wire) (Rpc.service_time_of ep one);
      let meta = Types.Meta { rid = rid 1 2; shard = 0; size = 100; log = 0 } in
      let entries = [ entry ~size:100 2 1; meta; entry ~size:300 2 2 ] in
      let bytes =
        List.fold_left (fun acc e -> acc + Types.entry_wire_size e) 0 entries
      in
      let batch = Proto.Sr_append { view = 0; entries; tracked = [] } in
      checki "batch request size" (12 + bytes + (3 * 4)) (Proto.req_size batch);
      checki "batch service time" (cpu bytes + (50 * 2))
        (Rpc.service_time_of ep batch))

(* One list of packed frontiers costs exactly what log 0's scalar plus
   the tenant list did: log 0's frontier rides free in the fixed header,
   and each tenant frontier costs 16 B in a state transfer, 8 B in a
   truncation. This identity keeps every recovery schedule unchanged. *)
let test_frontier_wire_cost () =
  let flushed = [ (0, rid 1 1); (1, rid 1 2) ] in
  let e = entry ~size:100 1 3 in
  List.iter
    (fun n ->
      let frontiers =
        12 :: List.init n (fun i -> Logid.pack ~log:(i + 1) 7)
      in
      checki
        (Printf.sprintf "install view, %d tenant frontiers" n)
        ((24 * 2) + (16 * n) + 32)
        (Proto.req_size
           (Proto.Sr_install_view { new_view = 1; frontiers; flushed }));
      checki
        (Printf.sprintf "state, %d tenant frontiers" n)
        (16 + (16 * n) + Types.entry_wire_size e)
        (Proto.resp_size (Proto.R_state { frontiers; entries = [ e ] })))
    [ 0; 1; 3 ];
  let r = Types.record ~rid:(rid 1 1) ~size:100 () in
  let slots = [ (5, r) ] in
  let truncate = [ 4; Logid.pack ~log:1 2; Logid.pack ~log:2 0 ] in
  checki "log-0 truncation is free" (Proto.record_wire r)
    (Proto.req_size (Proto.Msh_push { truncate = [ 4 ]; slots }));
  checki "truncating push" (Proto.record_wire r + (8 * 2))
    (Proto.req_size (Proto.Msh_push { truncate; slots }));
  checki "truncating order"
    (24 + (12 * 2) + (8 * 2))
    (Proto.req_size
       (Proto.Ssh_order
          {
            truncate;
            bindings = [ (5, rid 1 1) ];
            map_chunk = [ (5, 0); (6, 1) ];
          }))

let () =
  Alcotest.run "seq_replica"
    [
      ( "protocol",
        [
          Alcotest.test_case "append ack + dedup" `Quick
            test_append_ack_and_dedup;
          Alcotest.test_case "wrong view rejected" `Quick
            test_wrong_view_rejected;
          Alcotest.test_case "seal / install-view cycle" `Quick
            test_seal_rejects_then_install_unseals;
          Alcotest.test_case "get_state" `Quick test_get_state_returns_unordered;
          Alcotest.test_case "checkTail includes unordered" `Quick
            test_check_tail_includes_unordered;
          Alcotest.test_case "checkTail rejected when sealed" `Quick
            test_check_tail_rejected_when_sealed;
          Alcotest.test_case "wait_ordered tracking" `Quick
            test_wait_ordered_tracks;
          Alcotest.test_case "seal releases blocked appends" `Quick
            test_seal_releases_blocked_appends;
          Alcotest.test_case "append cost: one entry = one record" `Quick
            test_append_cost_model;
          Alcotest.test_case "frontier cost: log 0 rides free" `Quick
            test_frontier_wire_cost;
        ] );
    ]
