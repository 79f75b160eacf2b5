(* End-to-end tests for Erwin-st: data/metadata separation, the
   position-to-shard map, client-failure no-op repair, backup backfill,
   orphan scrubbing, and seamless shard addition. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let with_cluster ?(cfg = { Config.default with Config.nshards = 3 }) f =
  Engine.run (fun () ->
      let cluster = Erwin_st.create ~cfg () in
      f cluster;
      Engine.stop ())

let test_roundtrip_across_shards () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 60 do
        checkb "acked" true (log.append ~size:4096 ~data:(string_of_int i))
      done;
      let records = log.read ~from:0 ~len:60 in
      checki "all read" 60 (List.length records);
      List.iteri
        (fun i (r : Types.record) ->
          Alcotest.(check string) "in order" (string_of_int (i + 1)) r.data)
        records)

let test_data_lands_on_chosen_shards () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 30 do
        ignore (log.append ~size:1024 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 3);
      (* Round-robin clients spread records over all shards. *)
      List.iter
        (fun shard ->
          checkb
            (Printf.sprintf "shard %d holds data" (Shard.shard_id shard))
            true
            (List.length (Shard.bound_positions shard) > 0))
        cluster.shards;
      (* And the union covers every position exactly once. *)
      let all =
        List.concat_map (fun s -> Shard.bound_positions s) cluster.shards
      in
      checki "total bound" 30 (List.length all);
      let positions = List.map fst all |> List.sort_uniq compare in
      checki "dense positions" 30 (List.length positions))

let test_map_cache_read_one_fetch () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 50 do
        ignore (log.append ~size:512 ~data:(string_of_int i))
      done;
      Engine.sleep (Engine.ms 3);
      (* First read warms the cache; a second read of nearby positions
         must not be slower (cache hit). *)
      ignore (log.read ~from:0 ~len:10);
      let t0 = Engine.now () in
      ignore (log.read ~from:10 ~len:10);
      let cached = Engine.now () - t0 in
      checkb "cached read quick" true (cached < Engine.us 40))

let test_appends_survive_and_are_durable () =
  with_cluster (fun cluster ->
      let n_writers = 6 in
      let done_ = ref 0 in
      for w = 0 to n_writers - 1 do
        let log = Erwin_st.client cluster in
        Engine.spawn (fun () ->
            for i = 1 to 30 do
              ignore (log.append ~size:2048 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore
        (Waitq.await_timeout wq ~timeout:(Engine.ms 100) (fun () ->
             !done_ = n_writers));
      Engine.sleep (Engine.ms 5);
      let log = Erwin_st.client cluster in
      let tail = log.check_tail () in
      checki "all durable" (n_writers * 30) tail;
      let records = log.read ~from:0 ~len:tail in
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (r : Types.record) ->
          checkb "unique" false (Hashtbl.mem seen r.data);
          Hashtbl.replace seen r.data ())
        records;
      checki "none lost" tail (Hashtbl.length seen))

(* A client that writes metadata but dies before the data reaches the
   shard: the binding must resolve to a no-op after the wait timeout
   (section 5.4), and reads must skip it. *)
let test_client_failure_noop () =
  let cfg =
    {
      Config.default with
      Config.nshards = 1;
      data_wait_timeout = Engine.us 200;
    }
  in
  with_cluster ~cfg (fun cluster ->
      (* Craft the failure: send metadata directly without data. *)
      let ep = Erwin_common.new_endpoint cluster ~name:"evil-client" in
      let rid = { Types.Rid.client = 999; seq = 1 } in
      let meta = Types.Meta { rid; shard = 0; size = 100; log = 0 } in
      let req = Proto.append_one ~view:cluster.view ~track:false meta in
      let g = Rpc.group ep (List.length cluster.replicas) in
      List.iter
        (fun r -> Rpc.group_call g ~dst:(Seq_replica.node_id r) req)
        cluster.replicas;
      checkb "every replica answered" true (Rpc.group_join g);
      (* A normal append after it. *)
      let log = Erwin_st.client cluster in
      ignore (log.append ~size:100 ~data:"real");
      Engine.sleep (Engine.ms 5);
      checki "both bound" 2 cluster.stable_gp;
      let shard = List.hd cluster.shards in
      (match Shard.read_local shard 0 with
      | Some r -> checkb "position 0 is a no-op" true (Types.is_no_op r)
      | None -> Alcotest.fail "position 0 missing");
      (* Late data for the no-op'ed rid is rejected. *)
      let late = Types.record ~rid ~size:100 ~data:"late" () in
      (match
         Rpc.call ep ~dst:(Shard.primary_id shard)
           (Proto.Ssh_data_write { record = late })
       with
      | Proto.R_append { ok; _ } -> checkb "late write rejected" false ok
      | _ -> Alcotest.fail "bad response");
      (* Readers see the no-op marker and can skip it. *)
      let records = log.read ~from:0 ~len:2 in
      checki "read returns both positions" 2 (List.length records);
      checkb "first is no-op" true (Types.is_no_op (List.hd records)))

let test_orphan_scrubbing () =
  (* Data without metadata (the other client-failure case) is garbage
     collected by the scrubber. *)
  let cfg = { Config.default with Config.nshards = 1 } in
  Engine.run (fun () ->
      let cluster = Erwin_common.create ~cfg ~mode:Erwin_common.St in
      let shard = List.hd cluster.shards in
      Shard.start_scrubber shard ~age:(Engine.ms 1) ~every:(Engine.ms 1);
      let ep = Erwin_common.new_endpoint cluster ~name:"orphan-client" in
      let rid = { Types.Rid.client = 998; seq = 1 } in
      let record = Types.record ~rid ~size:100 ~data:"orphan" () in
      List.iter
        (fun dst ->
          ignore (Rpc.call ep ~dst (Proto.Ssh_data_write { record })))
        (Shard.replica_ids shard);
      checki "staged" 1 (Shard.staged_count shard);
      Engine.sleep (Engine.ms 5);
      checki "scrubbed" 0 (Shard.staged_count shard);
      Engine.stop ())

let test_seamless_shard_addition () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 20 do
        ignore (log.append ~size:512 ~data:("a" ^ string_of_int i))
      done;
      let before = List.length cluster.shards in
      ignore (Erwin_common.add_shard cluster : Shard.t);
      checki "one more shard" (before + 1) (List.length cluster.shards);
      (* New clients immediately use it; appends keep working and the log
         stays contiguous. *)
      let log2 = Erwin_st.client cluster in
      for i = 1 to 20 do
        ignore (log2.append ~size:512 ~data:("b" ^ string_of_int i))
      done;
      Engine.sleep (Engine.ms 5);
      let new_shard = List.nth cluster.shards before in
      checkb "new shard received records" true
        (List.length (Shard.bound_positions new_shard) > 0);
      let records = log.read ~from:0 ~len:40 in
      checki "contiguous log" 40 (List.length records))

let test_read_batch_spanning_shards () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 25 do
        ignore (log.append ~size:512 ~data:(string_of_int i))
      done;
      (* Reading 25 at a time, as in the paper's section 6.7. *)
      let records = log.read ~from:0 ~len:25 in
      checki "25 records" 25 (List.length records))

(* Erwin-st's 1-RTT append writes its data to every replica of the
   shard. With journal room each write is answered on the shard's bare
   path, so the append starts no fiber; the record still binds (on a
   handler fiber: binding joins replication) and reads back. *)
let test_append_starts_no_fiber () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      checkb "warm-up append" true (log.append ~size:1024 ~data:"a");
      let fibers0 = Engine.fiber_count () in
      checkb "acked" true (log.append ~size:1024 ~data:"b");
      checki "no fiber started" 0 (Engine.fiber_count () - fibers0);
      Alcotest.(check (list string))
        "both bind and read back" [ "a"; "b" ]
        (List.map (fun (r : Types.record) -> r.data) (log.read ~from:0 ~len:2)))

(* A read spanning three shards is one RPC group, one member per shard,
   joined once by the reader: no fiber, neither per shard nor per call.
   The positions are bound and the map is cached, so the shards answer
   on their bare path and the read starts no fiber anywhere. *)
let test_grouped_read_starts_no_fiber () =
  with_cluster (fun cluster ->
      let log = Erwin_st.client cluster in
      for i = 1 to 30 do
        checkb "acked" true (log.append ~size:512 ~data:(string_of_int i))
      done;
      while cluster.Erwin_common.stable_gp < 30 do
        Engine.sleep (Engine.us 100)
      done;
      checki "warm-up read" 30 (List.length (log.read ~from:0 ~len:30));
      checkb "records on all three shards" true
        (List.for_all
           (fun s -> Shard.bound_positions s <> [])
           cluster.Erwin_common.shards);
      let fibers0 = Engine.fiber_count () in
      checki "read" 30 (List.length (log.read ~from:0 ~len:30));
      checki "no fiber started" 0 (Engine.fiber_count () - fibers0))

let () =
  Alcotest.run "erwin-st"
    [
      ( "basics",
        [
          Alcotest.test_case "roundtrip across shards" `Quick
            test_roundtrip_across_shards;
          Alcotest.test_case "data on chosen shards" `Quick
            test_data_lands_on_chosen_shards;
          Alcotest.test_case "map cache" `Quick test_map_cache_read_one_fetch;
          Alcotest.test_case "batch read spanning shards" `Quick
            test_read_batch_spanning_shards;
          Alcotest.test_case "append starts no fiber" `Quick
            test_append_starts_no_fiber;
          Alcotest.test_case "grouped read starts no fiber" `Quick
            test_grouped_read_starts_no_fiber;
        ] );
      ( "failures",
        [
          Alcotest.test_case "client failure -> no-op" `Quick
            test_client_failure_noop;
          Alcotest.test_case "orphan scrubbing" `Quick test_orphan_scrubbing;
        ] );
      ( "elasticity",
        [
          Alcotest.test_case "concurrent writers durable" `Quick
            test_appends_survive_and_are_durable;
          Alcotest.test_case "seamless shard addition" `Quick
            test_seamless_shard_addition;
        ] );
    ]
