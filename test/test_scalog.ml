(* Scalog baseline tests: ack-after-cut semantics, global order across
   shards, position resolution, reads, trim, and the latency floor from
   eager ordering. *)

open Ll_sim
open Ll_scalog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let small_config =
  (* Faster endpoints for functional tests (latency shape is benched
     separately). *)
  { Scalog.default_config with rpc_overhead = Engine.us 2 }

let test_append_read () =
  Engine.run (fun () ->
      let s = Scalog.create ~config:small_config () in
      let log = Scalog.client s in
      for i = 1 to 20 do
        checkb "acked" true (log.append ~size:256 ~data:(string_of_int i))
      done;
      checki "tail" 20 (log.check_tail ());
      let records = log.read ~from:0 ~len:20 in
      checki "all" 20 (List.length records);
      List.iteri
        (fun i (r : Lazylog.Types.record) ->
          Alcotest.(check string) "order" (string_of_int (i + 1)) r.data)
        records;
      checkb "cuts were committed via paxos" true (Scalog.committed_cuts s > 0);
      Engine.stop ())

let test_ack_waits_for_cut () =
  Engine.run (fun () ->
      let config = { small_config with interleaving_interval = Engine.ms 2 } in
      let s = Scalog.create ~config () in
      let log = Scalog.client s in
      let t0 = Engine.now () in
      ignore (log.append ~size:256 ~data:"x");
      (* The append cannot complete before an interleaving tick + paxos. *)
      checkb "waited for the cut" true (Engine.now () - t0 >= Engine.ms 1);
      Engine.stop ())

let test_multi_shard_total_order () =
  Engine.run (fun () ->
      let config = { small_config with nshards = 3 } in
      let s = Scalog.create ~config () in
      let done_ = ref 0 in
      for w = 0 to 2 do
        let log = Scalog.client s in
        Engine.spawn (fun () ->
            for i = 1 to 20 do
              ignore (log.append ~size:128 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 500) (fun () -> !done_ = 3));
      checki "writers done" 3 !done_;
      let log = Scalog.client s in
      let tail = log.check_tail () in
      checki "all ordered" 60 tail;
      let records = log.read ~from:0 ~len:tail in
      checki "all readable" 60 (List.length records);
      (* Positions are dense and unique. *)
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (r : Lazylog.Types.record) ->
          checkb "unique" false (Hashtbl.mem seen r.data);
          Hashtbl.replace seen r.data ())
        records;
      Engine.stop ())

let test_per_client_order_preserved () =
  (* FIFO replication + cut ordering preserves each client's sequence. *)
  Engine.run (fun () ->
      let s = Scalog.create ~config:small_config () in
      let log = Scalog.client s in
      for i = 1 to 30 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      let records = log.read ~from:0 ~len:30 in
      let rec increasing last = function
        | [] -> true
        | (r : Lazylog.Types.record) :: rest ->
          let v = int_of_string r.data in
          v > last && increasing v rest
      in
      checkb "fifo" true (increasing 0 records);
      Engine.stop ())

let test_trim () =
  Engine.run (fun () ->
      let s = Scalog.create ~config:small_config () in
      let log = Scalog.client s in
      for i = 1 to 10 do
        ignore (log.append ~size:64 ~data:(string_of_int i))
      done;
      checkb "trim ok" true (log.trim ~upto:5);
      let records = log.read ~from:5 ~len:5 in
      checki "suffix" 5 (List.length records);
      Engine.stop ())

let test_pending_positions_freed () =
  (* Each lsn's position is read once, by its own Append handler, so an
     acked append leaves no entry behind in the shard's lsn->position
     table. *)
  Engine.run (fun () ->
      let s = Scalog.create ~config:small_config () in
      let log = Scalog.client s in
      for i = 1 to 20 do
        checkb "acked" true (log.append ~size:256 ~data:(string_of_int i))
      done;
      checki "no position left pending" 0 (Scalog.pending_positions s);
      Engine.stop ())

let test_isolation_probe_parity () =
  (* Section 6.1's "comparable performance regime": the lone Scalog shard
     sustains a disk-bound rate in the same ballpark as the Erwin shard. *)
  let _, tput = Scalog.shard_in_isolation_probe ~rate:30_000. ~seconds:0.1 ~size:4096 () in
  checkb "disk-bound throughput ~30K" true (tput > 20_000. && tput < 40_000.)

let () =
  Alcotest.run "scalog"
    [
      ( "scalog",
        [
          Alcotest.test_case "append/read" `Quick test_append_read;
          Alcotest.test_case "ack waits for cut" `Quick test_ack_waits_for_cut;
          Alcotest.test_case "multi-shard total order" `Quick
            test_multi_shard_total_order;
          Alcotest.test_case "per-client order" `Quick
            test_per_client_order_preserved;
          Alcotest.test_case "trim" `Quick test_trim;
          Alcotest.test_case "acked appends free their positions" `Quick
            test_pending_positions_freed;
          Alcotest.test_case "shard isolation parity" `Slow
            test_isolation_probe_parity;
        ] );
    ]
