(* Corfu baseline tests: sequencer, chain writes, placement, reads, and
   the eager-ordering cost (multiple RTTs per append). *)

open Ll_sim
open Ll_corfu

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_append_read () =
  Engine.run (fun () ->
      let c = Corfu.create () in
      let log = Corfu.client c in
      for i = 1 to 20 do
        checkb "acked" true (log.append ~size:512 ~data:(string_of_int i))
      done;
      checki "tail" 20 (log.check_tail ());
      let records = log.read ~from:0 ~len:20 in
      checki "all" 20 (List.length records);
      List.iteri
        (fun i (r : Lazylog.Types.record) ->
          Alcotest.(check string) "order" (string_of_int (i + 1)) r.data)
        records;
      Engine.stop ())

let test_positions_eager () =
  Engine.run (fun () ->
      let c = Corfu.create () in
      let log = Corfu.client c in
      let f = Option.get log.append_sync in
      checki "p0" 0 (f ~size:64 ~data:"a");
      checki "p1" 1 (f ~size:64 ~data:"b");
      Engine.stop ())

let test_append_cost_k_plus_1_rtts () =
  Engine.run (fun () ->
      let config = { Corfu.default_config with replicas_per_shard = 3 } in
      let c = Corfu.create ~config () in
      let log = Corfu.client c in
      ignore (log.append ~size:64 ~data:"warm");
      let t0 = Engine.now () in
      ignore (log.append ~size:64 ~data:"x");
      let d = Engine.now () - t0 in
      (* 4 RTTs at ~6us each: must exceed 3 RTTs and an Erwin-style
         1 RTT by a wide margin. *)
      checkb "eager ordering costs RTTs" true (d > Engine.us 18);
      (* one fewer replica -> one fewer RTT *)
      let config2 = { Corfu.default_config with replicas_per_shard = 2 } in
      let c2 = Corfu.create ~config:config2 () in
      let log2 = Corfu.client c2 in
      ignore (log2.append ~size:64 ~data:"warm");
      let t0 = Engine.now () in
      ignore (log2.append ~size:64 ~data:"x");
      let d2 = Engine.now () - t0 in
      checkb "chain length shows" true (d2 < d);
      Engine.stop ())

let test_multi_shard_placement () =
  Engine.run (fun () ->
      let config = { Corfu.default_config with nshards = 3 } in
      let c = Corfu.create ~config () in
      let log = Corfu.client c in
      for i = 1 to 30 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      (* every storage unit stores 10 records; total = 30 x replicas *)
      checki "chain writes counted" (30 * 3) (Corfu.positions_written c);
      let records = log.read ~from:0 ~len:30 in
      checki "read across shards" 30 (List.length records);
      Engine.stop ())

let test_concurrent_clients_unique_positions () =
  Engine.run (fun () ->
      let c = Corfu.create () in
      let positions = ref [] in
      let done_ = ref 0 in
      for _ = 1 to 5 do
        let log = Corfu.client c in
        let f = Option.get log.append_sync in
        Engine.spawn (fun () ->
            for i = 1 to 20 do
              let p = f ~size:64 ~data:(string_of_int i) in
              positions := p :: !positions
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 100) (fun () -> !done_ = 5));
      let ps = List.sort compare !positions in
      checki "100 positions" 100 (List.length ps);
      checki "unique and dense" 99 (List.nth ps 99);
      Engine.stop ())

let test_hole_filling () =
  (* A client takes a position from the sequencer and crashes before the
     chain write: the hole would block readers forever. The reader's
     hole-filling protocol junk-fills it and reads proceed. *)
  Engine.run (fun () ->
      let c = Corfu.create () in
      let log = Corfu.client c in
      ignore (log.append ~size:64 ~data:"a");
      let hole = Corfu.allocate_position c in
      checki "hole at position 1" 1 hole;
      ignore (log.append ~size:64 ~data:"b");
      let t0 = Engine.now () in
      let records = log.read ~from:0 ~len:3 in
      checkb "read unstuck itself" true (Engine.now () - t0 >= Engine.ms 5);
      checki "all three positions answered" 3 (List.length records);
      let datas = List.map (fun (r : Lazylog.Types.record) -> r.data) records in
      Alcotest.(check (list string))
        "hole junk-filled" [ "a"; "<no-op>"; "b" ] datas;
      checkb "junk is a no-op record" true
        (Lazylog.Types.is_no_op (List.nth records 1));
      Engine.stop ())

let test_holes_on_two_shards () =
  (* Positions 0-5 over three shards (position mod 3): shards 1 and 2
     each hold a hole (positions 1 and 5), shard 0 holds only data. The
     read's group times out on the two stuck members; each walks the
     hole-filling protocol on its own, and shard 0's reply is kept. *)
  Engine.run (fun () ->
      let c =
        Corfu.create ~config:{ Corfu.default_config with nshards = 3 } ()
      in
      let log = Corfu.client c in
      ignore (log.append ~size:64 ~data:"a");
      checki "first hole" 1 (Corfu.allocate_position c);
      List.iter (fun d -> ignore (log.append ~size:64 ~data:d)) [ "b"; "c"; "d" ];
      checki "second hole" 5 (Corfu.allocate_position c);
      let t0 = Engine.now () in
      let records = log.read ~from:0 ~len:6 in
      checkb "read waited out the deadline" true
        (Engine.now () - t0 >= Engine.ms 5);
      Alcotest.(check (list string))
        "both holes junk-filled, in position order"
        [ "a"; "<no-op>"; "b"; "c"; "d"; "<no-op>" ]
        (List.map (fun (r : Lazylog.Types.record) -> r.data) records);
      checkb "junk is a no-op record" true
        (List.for_all
           (fun i -> Lazylog.Types.is_no_op (List.nth records i))
           [ 1; 5 ]);
      (* The fills are durable: a second read finds no hole. *)
      let t0 = Engine.now () in
      checki "re-read answers at once" 6 (List.length (log.read ~from:0 ~len:6));
      checkb "no deadline the second time" true
        (Engine.now () - t0 < Engine.ms 5);
      Engine.stop ())

let test_fill_loses_to_data () =
  (* Write-once: if the slow client's data arrives before the fill, the
     data wins and the fill is a no-op. *)
  Engine.run (fun () ->
      let c = Corfu.create () in
      let log = Corfu.client c in
      let p0 = (Option.get log.append_sync) ~size:64 ~data:"real" in
      (* Fill attempts against an already-written position change nothing. *)
      let records = log.read ~from:p0 ~len:1 in
      Alcotest.(check (list string))
        "data preserved" [ "real" ]
        (List.map (fun (r : Lazylog.Types.record) -> r.data) records);
      Engine.stop ())

let () =
  Alcotest.run "corfu"
    [
      ( "corfu",
        [
          Alcotest.test_case "append/read" `Quick test_append_read;
          Alcotest.test_case "eager positions" `Quick test_positions_eager;
          Alcotest.test_case "append costs k+1 RTTs" `Quick
            test_append_cost_k_plus_1_rtts;
          Alcotest.test_case "multi-shard placement" `Quick
            test_multi_shard_placement;
          Alcotest.test_case "unique positions" `Quick
            test_concurrent_clients_unique_positions;
          Alcotest.test_case "hole filling" `Quick test_hole_filling;
          Alcotest.test_case "holes on two shards" `Quick
            test_holes_on_two_shards;
          Alcotest.test_case "fill loses to data" `Quick
            test_fill_loses_to_data;
        ] );
    ]
