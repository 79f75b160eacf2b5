(* Tests for the storage substrate: mem log, disk model and the
   write-buffered store. The paper's ring buffer is the sequencing log's
   slot ring; its tests are in test_seq_log.ml. *)

open Ll_sim
open Ll_storage

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* --- Mem_log --- *)

let test_mem_log_basic () =
  let l = Mem_log.create () in
  checki "p0" 0 (Mem_log.append l "a");
  checki "p1" 1 (Mem_log.append l "b");
  Alcotest.(check (option string)) "get" (Some "a") (Mem_log.get l 0);
  Mem_log.set l 5 "sparse";
  checki "length after sparse set" 6 (Mem_log.length l);
  Alcotest.(check (option string)) "hole" None (Mem_log.get l 3)

let test_mem_log_trim_truncate () =
  let l = Mem_log.create () in
  for i = 0 to 9 do
    ignore (Mem_log.append l i)
  done;
  Mem_log.trim l 4;
  checki "first" 4 (Mem_log.first l);
  Alcotest.(check (option int)) "trimmed" None (Mem_log.get l 2);
  Mem_log.truncate l 7;
  checki "length" 7 (Mem_log.length l);
  Alcotest.(check (option int)) "truncated" None (Mem_log.get l 8);
  Alcotest.(check (list (pair int int)))
    "survivors"
    [ (4, 4); (5, 5); (6, 6) ]
    (Mem_log.to_list l)

(* The option-free lookups agree with [get] on a hole, past the tail, on
   a trimmed position and across sparse chunks, packed positions among
   them; [remove_range] clears only its range. *)
let test_mem_log_mem_find () =
  let l = Mem_log.create () in
  let packed = Lazylog.Logid.pack ~log:2 7 in
  List.iter (fun p -> Mem_log.set l p (p * 10)) [ 3; 5; 5_000; packed ];
  let found p = if Mem_log.mem l p then Some (Mem_log.find l p) else None in
  let check_pos msg p =
    Alcotest.(check (option int)) msg (Mem_log.get l p) (found p);
    if not (Mem_log.mem l p) then
      Alcotest.check_raises (msg ^ " raises") Not_found (fun () ->
          ignore (Mem_log.find l p : int))
  in
  checki "present" 30 (Mem_log.find l 3);
  checki "sparse chunk" 50_000 (Mem_log.find l 5_000);
  checki "packed" (packed * 10) (Mem_log.find l packed);
  checkb "hole" false (Mem_log.mem l 4);
  checkb "past the tail" false (Mem_log.mem l (packed + 1));
  checkb "between chunks" false (Mem_log.mem l 2_000);
  List.iter
    (fun p -> check_pos (string_of_int p) p)
    [ 0; 3; 4; 5; 2_000; 5_000; packed - 1; packed; packed + 1 ];
  Mem_log.trim l 4;
  checkb "trimmed" false (Mem_log.mem l 3);
  check_pos "trimmed" 3;
  Mem_log.remove_range l ~from:4_000 ~upto:packed;
  checkb "removed range" false (Mem_log.mem l 5_000);
  checkb "below the range kept" true (Mem_log.mem l 5);
  checkb "upto excluded" true (Mem_log.mem l packed);
  checki "length untouched" (packed + 1) (Mem_log.length l)

(* Random operation sequences against a [Map] model. Positions are dense
   log-0 positions spread over a few 1024-position chunks (a third of
   them next to a chunk edge), or packed positions of logs 1-3, so both
   the chunk walk and the sparse table walk run; trims and truncates draw
   from the same space. *)
module Im = Map.Make (Int)

let prop_mem_log_matches_model =
  let pos_gen =
    QCheck.Gen.(
      oneof
        [
          int_bound 3_500;
          map2 (fun c d -> max 0 ((c * 1024) + d - 1)) (int_bound 3) (int_bound 2);
          map2 (fun l p -> Lazylog.Logid.pack ~log:(1 + l) p) (int_bound 2)
            (int_bound 2_500);
        ])
  in
  let op_gen = QCheck.Gen.(triple (int_bound 9) pos_gen pos_gen) in
  QCheck.Test.make ~name:"mem_log matches Map model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) op_gen))
    (fun ops ->
      let l = Mem_log.create () in
      let m = ref Im.empty and first = ref 0 and next = ref 0 in
      let model_get p =
        if p < !first || p >= !next then None else Im.find_opt p !m
      in
      let model_range from upto =
        Im.bindings
          (Im.filter
             (fun p _ -> p >= max from !first && p < min upto !next)
             !m)
      in
      let listing ?upto from =
        let acc = ref [] in
        Mem_log.iter ?upto l ~from (fun p v -> acc := (p, v) :: !acc);
        List.rev !acc
      in
      List.for_all
        (fun (op, a, b) ->
          (match op with
          | 0 | 1 | 2 | 3 ->
            Mem_log.set l a b;
            if a >= !first then m := Im.add a b !m;
            if a >= !next then next := a + 1
          | 4 ->
            Mem_log.remove l a;
            m := Im.remove a !m
          | 5 ->
            Mem_log.truncate l a;
            let n = max a !first in
            if n < !next then begin
              m := Im.filter (fun p _ -> p < n) !m;
              next := n
            end
          | 6 ->
            Mem_log.trim l a;
            let n = min a !next in
            if n > !first then begin
              m := Im.filter (fun p _ -> p >= n) !m;
              first := n
            end
          | _ -> ());
          Mem_log.get l a = model_get a
          && Mem_log.get l b = model_get b
          && Mem_log.mem l a = (model_get a <> None)
          && Mem_log.length l = !next
          && Mem_log.first l = !first
          && listing ~upto:(max a b) (min a b) = model_range (min a b) (max a b)
          && listing a = model_range a max_int
          && Mem_log.to_list l = Im.bindings !m)
        ops)

(* --- Disk --- *)

let test_disk_serializes () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:1.0 () in
      let done_at = ref [] in
      for _ = 1 to 3 do
        Engine.spawn (fun () ->
            Disk.write d ~bytes:10_000;
            done_at := Engine.now () :: !done_at)
      done;
      Engine.sleep (Engine.ms 1);
      (* each op = 10us + 10us = 20us, serialized: 20/40/60us *)
      Alcotest.(check (list int))
        "serialized completions"
        [ Engine.us 20; Engine.us 40; Engine.us 60 ]
        (List.rev !done_at))

let test_disk_counters () =
  Engine.run (fun () ->
      let d = Disk.create () in
      Disk.write d ~bytes:100;
      Disk.write d ~bytes:200;
      checki "ops" 2 (Disk.ops d);
      checki "bytes" 300 (Disk.bytes_written d))

let test_disk_degrade () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:1.0 () in
      let t0 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "healthy op" (Engine.us 20) (Engine.now () - t0);
      Disk.set_fail_slow d (Disk.Degrade { factor = 3.0; until = max_int });
      let t1 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "degraded op is factor x slower" (Engine.us 60)
        (Engine.now () - t1);
      Disk.set_fail_slow d Disk.Healthy;
      let t2 = Engine.now () in
      Disk.write d ~bytes:10_000;
      checki "healed" (Engine.us 20) (Engine.now () - t2))

(* A degrade ends at its [until] even for the work booked in it: a
   20 us write booked at 3x 30 us before the window ends has done 10 us
   of its work by then and finishes the other 10 us at the healthy rate;
   a write queued behind it runs healthy. *)
let test_disk_degrade_window () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:1.0 () in
      let t0 = Engine.now () in
      Disk.set_fail_slow d
        (Disk.Degrade { factor = 3.0; until = t0 + Engine.us 30 });
      let first = ref 0 and second = ref 0 in
      Engine.spawn (fun () ->
          Disk.write d ~bytes:10_000;
          first := Engine.now () - t0);
      Engine.spawn (fun () ->
          Disk.write d ~bytes:10_000;
          second := Engine.now () - t0);
      Engine.sleep (Engine.us 100);
      checki "slow until the window ends" (Engine.us 40) !first;
      checki "queued write at the healthy rate" (Engine.us 60) !second)

let test_disk_stutter () =
  Engine.run (fun () ->
      let d = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:0.0 () in
      Disk.set_fail_slow d
        (Disk.Stutter { period = Engine.ms 1; stall = Engine.us 500 });
      (* Inside the first period: normal service. *)
      let t0 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "pre-stall op healthy" (Engine.us 10) (Engine.now () - t0);
      (* Cross the period boundary: the next op to start pays the stall. *)
      Engine.sleep (Engine.us 1200);
      let t1 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "stalled op pays the pause" (Engine.us 510) (Engine.now () - t1);
      (* Immediately after a stall: healthy again until the next period. *)
      let t2 = Engine.now () in
      Disk.write d ~bytes:0;
      checki "post-stall op healthy" (Engine.us 10) (Engine.now () - t2))

(* --- Flushed store --- *)

let test_flushed_store_async_drain () =
  Engine.run (fun () ->
      let disk = Disk.create ~base_latency:(Engine.us 50) ~ns_per_byte:0.0 () in
      let s = Flushed_store.create ~disk () in
      let t0 = Engine.now () in
      for i = 0 to 9 do
        Flushed_store.append s ~pos:i ~size:1000 i
      done;
      (* appends are memory-speed: no disk latency in the caller *)
      checkb "fast appends" true (Engine.now () - t0 < Engine.us 1);
      checkb "dirty" true (Flushed_store.dirty_bytes s > 0);
      Flushed_store.flush_wait s;
      checki "drained" 0 (Flushed_store.dirty_bytes s);
      Alcotest.(check (option int)) "readable" (Some 5)
        (Flushed_store.read s ~pos:5))

let test_flushed_store_backpressure () =
  Engine.run (fun () ->
      let disk = Disk.create ~base_latency:(Engine.us 100) ~ns_per_byte:0.0 () in
      let s = Flushed_store.create ~disk ~dirty_limit_bytes:1_000 () in
      let t0 = Engine.now () in
      (* First append fills the dirty buffer; the next must wait for the
         device. *)
      Flushed_store.append s ~pos:0 ~size:1_000 0;
      Flushed_store.append s ~pos:1 ~size:1_000 1;
      checkb "second append backpressured" true
        (Engine.now () - t0 >= Engine.us 100))

(* The dirty sizes sit on a ring that starts at 64 slots. A batch of 100
   grows it; appends held back by the dirty limit then wrap it and grow it
   again while the flusher drains from the middle. At least 8 entries stay
   dirty until the last appends, so the flusher writes back to back, 8
   entries per device op (one per 10 us), and sampling the device between
   ops must see exactly the prefix sums of the sizes in staging order. *)
let test_flushed_store_dirty_ring () =
  Engine.run (fun () ->
      let disk = Disk.create ~base_latency:(Engine.us 10) ~ns_per_byte:0.0 () in
      let s =
        Flushed_store.create ~disk ~dirty_limit_bytes:1_000
          ~entries_per_file:8 ()
      in
      let first = List.init 100 (fun i -> 15 + (i mod 11)) in
      let rest = List.init 300 (fun i -> (i mod 13) + 1) in
      let sizes = Array.of_list (first @ rest) in
      let n = Array.length sizes in
      let ops = (n + 7) / 8 in
      let samples = ref [] in
      Engine.spawn (fun () ->
          Engine.sleep 1;
          for _ = 1 to ops do
            samples := Disk.bytes_written disk :: !samples;
            Engine.sleep (Engine.us 10)
          done);
      Flushed_store.append_batch s
        (List.mapi (fun pos size -> (pos, size, pos)) first);
      List.iteri
        (fun i size -> Flushed_store.append s ~pos:(100 + i) ~size (100 + i))
        rest;
      checkb "appends held back by the dirty limit" true
        (Engine.now () > Engine.us 100);
      Flushed_store.flush_wait s;
      Engine.sleep (Engine.us 20);
      let prefix k =
        let sum = ref 0 in
        for i = 0 to min k n - 1 do
          sum := !sum + sizes.(i)
        done;
        !sum
      in
      Alcotest.(check (list int))
        "bytes flushed after each op"
        (List.init ops (fun k -> prefix (8 * (k + 1))))
        (List.rev !samples);
      checki "one op per 8 entries" ops (Disk.ops disk);
      checki "drained" 0 (Flushed_store.dirty_bytes s);
      Alcotest.(check (option int)) "last entry" (Some (n - 1))
        (Flushed_store.read s ~pos:(n - 1)))

let test_flushed_store_truncate_rewrite () =
  Engine.run (fun () ->
      let disk = Disk.create () in
      let s = Flushed_store.create ~disk () in
      Flushed_store.append s ~pos:0 ~size:10 "old0";
      Flushed_store.append s ~pos:1 ~size:10 "old1";
      Flushed_store.truncate s 1;
      Flushed_store.append s ~pos:1 ~size:10 "new1";
      Flushed_store.flush_wait s;
      Alcotest.(check (option string)) "rewritten" (Some "new1")
        (Flushed_store.read s ~pos:1);
      Alcotest.(check (list (pair int string)))
        "entries"
        [ (0, "old0"); (1, "new1") ]
        (Flushed_store.entries s))

let test_flushed_store_entries_from () =
  Engine.run (fun () ->
      let s = Flushed_store.create ~disk:(Disk.create ()) () in
      List.iter
        (fun p -> Flushed_store.append s ~pos:p ~size:1 p)
        [ 0; 2; 4; 6 ];
      Alcotest.(check (list (pair int int)))
        "from 3" [ (4, 4); (6, 6) ]
        (Flushed_store.entries_from s 3))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "storage"
    [
      ( "mem_log",
        [
          Alcotest.test_case "basic" `Quick test_mem_log_basic;
          Alcotest.test_case "trim/truncate" `Quick test_mem_log_trim_truncate;
          Alcotest.test_case "mem/find" `Quick test_mem_log_mem_find;
        ]
        @ qc [ prop_mem_log_matches_model ] );
      ( "disk",
        [
          Alcotest.test_case "serializes" `Quick test_disk_serializes;
          Alcotest.test_case "counters" `Quick test_disk_counters;
          Alcotest.test_case "fail-slow degrade" `Quick test_disk_degrade;
          Alcotest.test_case "a degrade ends at its window" `Quick
            test_disk_degrade_window;
          Alcotest.test_case "fail-slow stutter" `Quick test_disk_stutter;
        ] );
      ( "flushed_store",
        [
          Alcotest.test_case "async drain" `Quick test_flushed_store_async_drain;
          Alcotest.test_case "backpressure" `Quick
            test_flushed_store_backpressure;
          Alcotest.test_case "dirty ring" `Quick test_flushed_store_dirty_ring;
          Alcotest.test_case "truncate then rewrite" `Quick
            test_flushed_store_truncate_rewrite;
          Alcotest.test_case "entries_from" `Quick
            test_flushed_store_entries_from;
        ] );
    ]
