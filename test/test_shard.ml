(* Direct protocol tests of the Erwin shard service: pushes and
   replication, read gating on stable-gp, logical tail overwrite
   (unbind/truncate), map chunks, backup backfill, and journal
   accounting. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let rid c s = { Types.Rid.client = c; seq = s }

let record ?(size = 256) c s data = Types.record ~rid:(rid c s) ~size ~data ()

let with_shard ?(cfg = Config.default) f =
  Engine.run (fun () ->
      let fabric = Fabric.create ~link:cfg.Config.link () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let node =
        Fabric.add_node fabric ~name:"probe" ~send_overhead:500
          ~recv_overhead:500 ()
      in
      let ep = Rpc.endpoint fabric node in
      f shard ep;
      Engine.stop ())

let call ep shard req =
  Rpc.call ep ~dst:(Shard.primary_id shard) ~size:(Proto.req_size req) req

let push ep shard ?(truncate = []) slots =
  match
    call ep shard (Proto.Msh_push { truncate; slots })
  with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "push failed"

let set_stable ep shard gp =
  match call ep shard (Proto.Sh_set_stable { gp }) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "set_stable failed"

let read ep shard positions =
  match call ep shard (Proto.Sh_read { positions; stable_hint = 0 }) with
  | Proto.R_records { records; _ } -> records
  | _ -> Alcotest.fail "read failed"

let stage ep shard record =
  match call ep shard (Proto.Ssh_data_write { record }) with
  | Proto.R_append { ok = true; _ } -> ()
  | _ -> Alcotest.fail "stage failed"

let order ep shard ?(truncate = []) bindings ~map_chunk =
  match call ep shard (Proto.Ssh_order { truncate; bindings; map_chunk }) with
  | Proto.R_ok -> ()
  | _ -> Alcotest.fail "order failed"

let get_map ?dst ep shard ~from ~count =
  let req = Proto.Ssh_get_map { from; count; stable_hint = 0 } in
  let dst = Option.value dst ~default:(Shard.primary_id shard) in
  match Rpc.call ep ~dst ~size:(Proto.req_size req) req with
  | Proto.R_map { chunk; _ } -> chunk
  | _ -> Alcotest.fail "bad map response"

let test_push_and_read () =
  with_shard (fun shard ep ->
      push ep shard [ (0, record 1 1 "a"); (1, record 1 2 "b") ];
      set_stable ep shard 2;
      let records = read ep shard [ 0; 1 ] in
      checki "both" 2 (List.length records);
      Alcotest.(check string) "first" "a" (snd (List.hd records)).Types.data)

let test_read_blocks_until_stable () =
  with_shard (fun shard ep ->
      push ep shard [ (0, record 1 1 "a") ];
      let got = ref None in
      Engine.spawn (fun () -> got := Some (read ep shard [ 0 ]));
      Engine.sleep (Engine.ms 1);
      checkb "read gated on stable-gp" true (!got = None);
      set_stable ep shard 1;
      Engine.sleep (Engine.ms 1);
      (match !got with
      | Some [ (0, r) ] -> Alcotest.(check string) "value" "a" r.Types.data
      | _ -> Alcotest.fail "read did not complete"))

let test_replication_to_backups () =
  (* The primary must not ack a push before its backups have it: crash a
     backup and the push cannot complete. *)
  Engine.run (fun () ->
      let cfg = { Config.default with shard_backup_count = 1 } in
      let fabric = Fabric.create () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let node = Fabric.add_node fabric ~name:"probe" () in
      let ep = Rpc.endpoint fabric node in
      (* Crash the backup (node id 1: primary is 0). *)
      Fabric.crash fabric (Fabric.node_by_id fabric 1);
      let answered = ref false in
      Engine.spawn (fun () ->
          ignore
            (call ep shard
               (Proto.Msh_push
                  { truncate = [];
                    slots = [ (0, record 1 1 "a") ] }));
          answered := true);
      Engine.sleep (Engine.ms 5);
      checkb "push unacknowledged without backup" false !answered;
      Engine.stop ())

let test_truncate_overwrite () =
  with_shard (fun shard ep ->
      push ep shard [ (0, record 1 1 "old0"); (1, record 1 2 "old1") ];
      (* Recovery overwrites the tail from position 1. *)
      push ep shard ~truncate:[ 1 ] [ (1, record 2 1 "new1") ];
      set_stable ep shard 2;
      let records = read ep shard [ 0; 1 ] in
      Alcotest.(check (list string))
        "overwritten" [ "old0"; "new1" ]
        (List.map (fun (_, (r : Types.record)) -> r.data) records))

let test_truncate_scoped_to_log () =
  (* A log-0 frontier unbinds only log 0's tail. Tenant positions are
     packed above every log-0 position, so a numeric truncate would
     destroy them; they must stay bound and readable. *)
  with_shard (fun shard ep ->
      let p1 = Logid.pack ~log:1 in
      push ep shard
        [
          (0, record 1 1 "a0");
          (1, record 1 2 "a1");
          (2, record 1 3 "a2");
          (p1 0, record 2 1 "b0");
          (p1 1, record 2 2 "b1");
        ];
      push ep shard ~truncate:[ 1 ] [];
      checkb "log-0 tail unbound" true
        (Shard.read_local shard 1 = None && Shard.read_local shard 2 = None);
      set_stable ep shard 1;
      set_stable ep shard (p1 2);
      Alcotest.(check (list string))
        "log-0 prefix kept" [ "a0" ]
        (List.map (fun (_, (r : Types.record)) -> r.data) (read ep shard [ 0 ]));
      Alcotest.(check (list string))
        "every log-1 position still readable" [ "b0"; "b1" ]
        (List.map
           (fun (_, (r : Types.record)) -> r.data)
           (read ep shard [ p1 0; p1 1 ])))

let test_st_unbind_restages () =
  (* Erwin-st truncate moves bound records back to staging so recovery can
     rebind them at different positions. *)
  with_shard (fun shard ep ->
      let r1 = record 1 1 "x" in
      (match call ep shard (Proto.Ssh_data_write { record = r1 }) with
      | Proto.R_append { ok = true; _ } -> ()
      | _ -> Alcotest.fail "stage failed");
      (match
         call ep shard
           (Proto.Ssh_order
              { truncate = [];
                bindings = [ (5, rid 1 1) ];
                map_chunk = [ (5, 0) ] })
       with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "order failed");
      checki "bound, staging empty" 0 (Shard.staged_count shard);
      (* Rebind at a different position after a truncate. *)
      (match
         call ep shard
           (Proto.Ssh_order
              { truncate = [ 2 ];
                bindings = [ (3, rid 1 1) ];
                map_chunk = [ (3, 0) ] })
       with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "reorder failed");
      set_stable ep shard 4;
      (match read ep shard [ 3 ] with
      | [ (3, r) ] -> Alcotest.(check string) "rebound" "x" r.Types.data
      | l -> Alcotest.failf "expected 1, got %d" (List.length l));
      checkb "old position gone" true (Shard.read_local shard 5 = None);
      (* The map entry at the old position went with the binding. *)
      set_stable ep shard 6;
      Alcotest.(check (list (pair int int)))
        "map follows the rebind" [ (3, 0) ]
        (get_map ep shard ~from:0 ~count:10))

(* The orphan scrubber (age 100 ms, every 50 ms, as Erwin-st runs it) must
   not drop a record that a truncate just moved back to staging: the
   rebind that follows may first wait out [data_wait_timeout] on another
   binding, and a scrubber tick landing in that wait would otherwise turn
   an acked record into a no-op. *)
let test_restaged_survives_scrubber () =
  let cfg = { Config.default with shard_backup_count = 0 } in
  with_shard ~cfg (fun shard ep ->
      Shard.start_scrubber shard ~age:(Engine.ms 100) ~every:(Engine.ms 50);
      stage ep shard (record 1 1 "x");
      order ep shard [ (5, rid 1 1) ] ~map_chunk:[ (5, 0) ];
      Engine.sleep_until (Engine.ms 198);
      (* Position 2's rid never arrives; the tick at 200 ms falls inside
         its wait. *)
      order ep shard ~truncate:[ 2 ]
        [ (2, rid 9 9); (3, rid 1 1) ]
        ~map_chunk:[ (2, 0); (3, 0) ];
      set_stable ep shard 4;
      Alcotest.(check (list string))
        "missing rid no-op'ed, re-staged record rebound" [ "<no-op>"; "x" ]
        (List.map
           (fun (_, (r : Types.record)) ->
             if Types.is_no_op r then "<no-op>" else r.data)
           (read ep shard [ 2; 3 ])))

(* Map entries are unbound per log, like the records: a log-0 truncate
   keeps log 1's entries although they sit at numerically higher
   positions, and a log-1 truncate keeps log 0's. *)
let test_map_truncate_scoped_to_log () =
  with_shard (fun shard ep ->
      let p1 = Logid.pack ~log:1 in
      List.iter
        (fun (c, data) -> stage ep shard (record c 1 data))
        [ (1, "a0"); (2, "a1"); (3, "b0"); (4, "b1") ];
      order ep shard
        [ (0, rid 1 1); (1, rid 2 1); (p1 0, rid 3 1); (p1 1, rid 4 1) ]
        ~map_chunk:[ (0, 0); (1, 0); (p1 0, 0); (p1 1, 0) ];
      set_stable ep shard 2;
      set_stable ep shard (p1 2);
      order ep shard ~truncate:[ 1 ] [] ~map_chunk:[];
      Alcotest.(check (list (pair int int)))
        "log-0 tail unmapped" [ (0, 0) ]
        (get_map ep shard ~from:0 ~count:10);
      Alcotest.(check (list (pair int int)))
        "log-1 entries kept" [ (p1 0, 0); (p1 1, 0) ]
        (get_map ep shard ~from:(p1 0) ~count:10);
      order ep shard ~truncate:[ p1 1 ] [] ~map_chunk:[];
      Alcotest.(check (list (pair int int)))
        "log-1 tail unmapped" [ (p1 0, 0) ]
        (get_map ep shard ~from:(p1 0) ~count:10);
      Alcotest.(check (list (pair int int)))
        "log-0 prefix kept" [ (0, 0) ]
        (get_map ep shard ~from:0 ~count:10))

let test_get_map_waits_and_serves () =
  with_shard (fun shard ep ->
      let r1 = record 1 1 "x" in
      ignore (call ep shard (Proto.Ssh_data_write { record = r1 }));
      ignore
        (call ep shard
           (Proto.Ssh_order
              { truncate = [];
                bindings = [ (0, rid 1 1) ];
                map_chunk = [ (0, 0); (1, 2); (2, 1) ] }));
      set_stable ep shard 3;
      (match call ep shard (Proto.Ssh_get_map { from = 0; count = 10; stable_hint = 0 }) with
      | Proto.R_map { chunk; _ } ->
        Alcotest.(check (list (pair int int)))
          "full chunk, all shards' positions"
          [ (0, 0); (1, 2); (2, 1) ]
          chunk
      | _ -> Alcotest.fail "bad map response"))

let test_read_repair_via_stable_hint () =
  (* A shard that missed the final Sh_set_stable (it is a lossy one-way
     broadcast) must still serve reads carrying the client's stable hint:
     the hint repairs the local stable mirror and unblocks any reads
     already parked on it. *)
  with_shard (fun shard ep ->
      push ep shard [ (0, record 1 1 "a"); (1, record 1 2 "b") ];
      (* The covering Sh_set_stable is never delivered. A hint-less read
         parks... *)
      let parked = ref None in
      Engine.spawn (fun () -> parked := Some (read ep shard [ 0 ]));
      Engine.sleep (Engine.ms 1);
      checkb "hint-less read parked" true (!parked = None);
      (* ...while a hinted read both answers and repairs the mirror. *)
      (match
         call ep shard (Proto.Sh_read { positions = [ 0; 1 ]; stable_hint = 2 })
       with
      | Proto.R_records { records; _ } -> checki "served" 2 (List.length records)
      | _ -> Alcotest.fail "hinted read failed");
      Engine.sleep (Engine.ms 1);
      (match !parked with
      | Some [ (0, r) ] ->
        Alcotest.(check string) "parked read repaired too" "a" r.Types.data
      | _ -> Alcotest.fail "parked read still blocked after repair"))

let test_get_map_stable_hint () =
  (* Same repair path for Erwin-st map chunks. *)
  with_shard (fun shard ep ->
      ignore (call ep shard (Proto.Ssh_data_write { record = record 1 1 "x" }));
      ignore
        (call ep shard
           (Proto.Ssh_order
              { truncate = [];
                bindings = [ (0, rid 1 1) ];
                map_chunk = [ (0, 0) ] }));
      (* No Sh_set_stable: the request's hint stands in for it. *)
      (match
         call ep shard (Proto.Ssh_get_map { from = 0; count = 4; stable_hint = 1 })
       with
      | Proto.R_map { chunk; _ } ->
        Alcotest.(check (list (pair int int))) "chunk served" [ (0, 0) ] chunk
      | _ -> Alcotest.fail "bad map response"))

let test_backfill_to_backup () =
  (* A backup missing a staged record asks for backfill during order
     replication; afterwards both replicas hold the bound record. *)
  Engine.run (fun () ->
      let cfg = { Config.default with shard_backup_count = 1 } in
      let fabric = Fabric.create () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let node = Fabric.add_node fabric ~name:"probe" () in
      let ep = Rpc.endpoint fabric node in
      (* Stage only on the primary (simulates a client that died after one
         data write). *)
      let r1 = record 1 1 "solo" in
      (match
         Rpc.call ep ~dst:(Shard.primary_id shard)
           (Proto.Ssh_data_write { record = r1 })
       with
      | Proto.R_append { ok = true; _ } -> ()
      | _ -> Alcotest.fail "stage failed");
      (match
         Rpc.call ep ~dst:(Shard.primary_id shard)
           (Proto.Ssh_order
              { truncate = [];
                bindings = [ (0, rid 1 1) ];
                map_chunk = [ (0, 0) ] })
       with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "order failed");
      (* The record was NOT a no-op (primary had it), and the backup got
         backfilled: read after stable. *)
      ignore
        (Rpc.call ep ~dst:(Shard.primary_id shard) (Proto.Sh_set_stable { gp = 1 }));
      (match
         Rpc.call ep ~dst:(Shard.primary_id shard) (Proto.Sh_read { positions = [ 0 ]; stable_hint = 0 })
       with
      | Proto.R_records { records = [ (0, r) ]; _ } ->
        Alcotest.(check string) "bound" "solo" r.Types.data
      | _ -> Alcotest.fail "read failed");
      Engine.stop ())

let test_journal_retry_dedup () =
  (* A retried data write of the same rid must not hit the device twice. *)
  with_shard (fun shard ep ->
      let r1 = record ~size:4096 1 1 "x" in
      ignore (call ep shard (Proto.Ssh_data_write { record = r1 }));
      ignore (call ep shard (Proto.Ssh_data_write { record = r1 }));
      ignore (call ep shard (Proto.Ssh_data_write { record = r1 }));
      checki "staged once" 1 (Shard.staged_count shard))

let test_trim_drops_prefix () =
  with_shard (fun shard ep ->
      push ep shard (List.init 6 (fun i -> (i, record 1 (i + 1) (string_of_int i))));
      set_stable ep shard 6;
      (match call ep shard (Proto.Sh_trim { upto = 3 }) with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "trim failed");
      let records = read ep shard [ 0; 1; 2; 3; 4; 5 ] in
      Alcotest.(check (list int))
        "only suffix" [ 3; 4; 5 ]
        (List.map fst records))

let test_backup_replacement () =
  (* Crash a backup, keep pushing, replace it, and verify the replacement
     holds the full shard state — including records pushed during the
     copy (section 5.4). *)
  Engine.run (fun () ->
      let cfg = { Config.default with shard_backup_count = 1 } in
      let fabric = Fabric.create () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let node = Fabric.add_node fabric ~name:"probe" () in
      let ep = Rpc.endpoint fabric node in
      push ep shard [ (0, record 1 1 "a"); (1, record 1 2 "b") ];
      (* Kill the backup: pushes degrade (retry until giving up) but the
         primary stays usable. *)
      let dead = List.hd (Shard.backup_ids shard) in
      Fabric.crash fabric (Fabric.node_by_id fabric dead);
      Engine.spawn (fun () -> push ep shard [ (2, record 1 3 "c") ]);
      Engine.sleep (Engine.ms 2);
      (* Replace; pushes racing the copy are caught by the delta pass. *)
      Shard.replace_backup shard ~index:0;
      Engine.sleep (Engine.ms 600);
      push ep shard [ (3, record 1 4 "d") ];
      set_stable ep shard 4;
      checki "four records on the primary" 4
        (List.length (Shard.bound_positions shard));
      (* The new backup answers replication traffic: a further push must
         complete quickly (no retry storms). *)
      let t0 = Engine.now () in
      push ep shard [ (4, record 1 5 "e") ];
      checkb "replication healthy again" true
        (Engine.now () - t0 < Engine.ms 2);
      Engine.stop ())

let test_replacement_under_st_staging () =
  (* The replacement must also carry staged (unordered) records so later
     bindings on the new backup do not need backfill. *)
  Engine.run (fun () ->
      let cfg = { Config.default with shard_backup_count = 1 } in
      let fabric = Fabric.create () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let node = Fabric.add_node fabric ~name:"probe" () in
      let ep = Rpc.endpoint fabric node in
      (* Stage on the primary only, then replace the backup. *)
      ignore (call ep shard (Proto.Ssh_data_write { record = record 7 1 "x" }));
      Shard.replace_backup shard ~index:0;
      (* Bind: the new backup resolves from its copied staging (no
         R_missing round). *)
      (match
         call ep shard
           (Proto.Ssh_order
              { truncate = [];
                bindings = [ (0, rid 7 1) ];
                map_chunk = [ (0, 0) ] })
       with
      | Proto.R_ok -> ()
      | _ -> Alcotest.fail "order failed");
      set_stable ep shard 1;
      (match read ep shard [ 0 ] with
      | [ (0, r) ] -> Alcotest.(check string) "bound" "x" r.Types.data
      | _ -> Alcotest.fail "read failed");
      Engine.stop ())

let test_replacement_copies_map () =
  (* A replacement backup serves the map it copied, on its own: the
     primary is down by the time it is asked. *)
  Engine.run (fun () ->
      let cfg = { Config.default with shard_backup_count = 1 } in
      let fabric = Fabric.create () in
      let shard = Shard.create ~cfg ~fabric ~shard_id:0 in
      let ep = Rpc.endpoint fabric (Fabric.add_node fabric ~name:"probe" ()) in
      let p1 = Logid.pack ~log:1 in
      stage ep shard (record 7 1 "x");
      stage ep shard (record 7 2 "y");
      let map = [ (0, 0); (1, 2); (2, 1); (p1 0, 0) ] in
      order ep shard [ (0, rid 7 1); (p1 0, rid 7 2) ] ~map_chunk:map;
      set_stable ep shard 3;
      set_stable ep shard (p1 1);
      Shard.replace_backup shard ~index:0;
      Fabric.crash fabric (Fabric.node_by_id fabric (Shard.primary_id shard));
      let dst = List.hd (Shard.backup_ids shard) in
      Alcotest.(check (list (pair int int)))
        "log-0 map copied" [ (0, 0); (1, 2); (2, 1) ]
        (get_map ~dst ep shard ~from:0 ~count:10);
      Alcotest.(check (list (pair int int)))
        "log-1 map copied" [ (p1 0, 0) ]
        (get_map ~dst ep shard ~from:(p1 0) ~count:10);
      Engine.stop ())

(* The bare request path. A data write the journal has room for is
   answered with no handler fiber, from memory, before its bytes reach
   the device; one that finds the journal at its dirty limit declines to
   a fiber, which acks only once the flush has made room. *)
let test_data_write_declines_at_dirty_limit () =
  let cfg = { Config.default with dirty_limit_bytes = 1 } in
  with_shard ~cfg (fun shard ep ->
      (* One 4 KiB write on the default SATA device. *)
      let flush = Engine.us 20 + int_of_float (7.0 *. 4096.) in
      Engine.yield () (* let the stores' flushers start *);
      let fibers0 = Engine.fiber_count () in
      let t0 = Engine.now () in
      stage ep shard (record ~size:4096 1 1 "a");
      checki "room: no handler fiber" 0 (Engine.fiber_count () - fibers0);
      checkb "acked before the flush" true (Engine.now () - t0 < flush);
      stage ep shard (record ~size:4096 1 2 "b");
      checki "at the limit: one handler fiber" 1
        (Engine.fiber_count () - fibers0);
      checkb "acked after the flush" true (Engine.now () - t0 >= flush))

(* A read past the stable mirror declines to a fiber, which waits and
   serves it once stable advances; the same read, covered, is answered
   with no handler fiber. *)
let test_uncovered_read_declines () =
  with_shard (fun shard ep ->
      push ep shard [ (0, record 1 1 "a") ];
      let fibers0 = Engine.fiber_count () in
      let got = ref None in
      Engine.spawn (fun () -> got := Some (read ep shard [ 0 ]));
      Engine.sleep (Engine.ms 1);
      checkb "parked" true (!got = None);
      checki "the reader and one handler fiber" 2
        (Engine.fiber_count () - fibers0);
      set_stable ep shard 1;
      Engine.sleep (Engine.ms 1);
      checki "served after stable" 1
        (List.length (Option.value !got ~default:[]));
      let fibers1 = Engine.fiber_count () in
      checki "covered read" 1 (List.length (read ep shard [ 0 ]));
      checki "covered: no handler fiber" 0 (Engine.fiber_count () - fibers1))

let () =
  Alcotest.run "shard"
    [
      ( "erwin-m paths",
        [
          Alcotest.test_case "push and read" `Quick test_push_and_read;
          Alcotest.test_case "read gated on stable" `Quick
            test_read_blocks_until_stable;
          Alcotest.test_case "replication required" `Quick
            test_replication_to_backups;
          Alcotest.test_case "truncate overwrite" `Quick
            test_truncate_overwrite;
          Alcotest.test_case "truncate scoped to its log" `Quick
            test_truncate_scoped_to_log;
          Alcotest.test_case "trim" `Quick test_trim_drops_prefix;
        ] );
      ( "erwin-st paths",
        [
          Alcotest.test_case "unbind restages" `Quick test_st_unbind_restages;
          Alcotest.test_case "restaged survives scrubber" `Quick
            test_restaged_survives_scrubber;
          Alcotest.test_case "map truncate scoped to its log" `Quick
            test_map_truncate_scoped_to_log;
          Alcotest.test_case "get_map" `Quick test_get_map_waits_and_serves;
          Alcotest.test_case "backup backfill" `Quick test_backfill_to_backup;
          Alcotest.test_case "journal retry dedup" `Quick
            test_journal_retry_dedup;
          Alcotest.test_case "data write declines at the dirty limit" `Quick
            test_data_write_declines_at_dirty_limit;
          Alcotest.test_case "uncovered read declines" `Quick
            test_uncovered_read_declines;
        ] );
      ( "stable-hint read repair",
        [
          Alcotest.test_case "read repairs dropped set_stable" `Quick
            test_read_repair_via_stable_hint;
          Alcotest.test_case "get_map honors hint" `Quick
            test_get_map_stable_hint;
        ] );
      ( "replica replacement (s5.4)",
        [
          Alcotest.test_case "backup replacement" `Quick
            test_backup_replacement;
          Alcotest.test_case "staged state carried over" `Quick
            test_replacement_under_st_staging;
          Alcotest.test_case "map carried over" `Quick
            test_replacement_copies_map;
        ] );
    ]
