(* Kafka substrate tests: produce/fetch, producer batching, replication,
   truncation (the Erwin-m black-box hook), and Erwin-m over Kafka. *)

open Ll_sim
open Ll_kafka

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let record i =
  Lazylog.Types.record
    ~rid:{ Lazylog.Types.Rid.client = 0; seq = i }
    ~size:256
    ~data:(string_of_int i) ()

(* One produce to partition 0, waited for. *)
let produce c batch = Kafka.await_produces (Kafka.produce_slices c [| batch |])

let test_produce_fetch () =
  Engine.run (fun () ->
      let k = Kafka.create () in
      let c = Kafka.connect k ~name:"test" in
      produce c [ record 1; record 2 ];
      checki "first batch" 2 (Kafka.partition_tail k ~partition:0);
      produce c [ record 3 ];
      let records = Kafka.fetch c ~partition:0 ~offset:0 ~max:10 in
      Alcotest.(check (list int)) "offsets" [ 0; 1; 2 ] (List.map fst records);
      checki "fetched" 3 (List.length records);
      checki "tail" 3 (Kafka.partition_tail k ~partition:0);
      Engine.stop ())

let test_producer_linger_batches () =
  Engine.run (fun () ->
      let config = { Kafka.default_config with linger = Engine.ms 2 } in
      let k = Kafka.create ~config () in
      let p = Kafka.producer k ~partition:0 in
      let acked = ref 0 in
      for i = 1 to 5 do
        Engine.spawn (fun () ->
            Kafka.Producer.append p (record i);
            incr acked)
      done;
      Engine.sleep (Engine.ms 1);
      checki "held by linger" 0 !acked;
      Engine.sleep (Engine.ms 10);
      checki "all acked after linger" 5 !acked;
      checki "one batch at broker" 5 (Kafka.partition_tail k ~partition:0);
      Engine.stop ())

let test_producer_max_batch_flushes () =
  Engine.run (fun () ->
      let config = { Kafka.default_config with max_batch = 3; linger = Engine.sec 1 } in
      let k = Kafka.create ~config () in
      let p = Kafka.producer k ~partition:0 in
      let acked = ref 0 in
      for i = 1 to 3 do
        Engine.spawn (fun () ->
            Kafka.Producer.append p (record i);
            incr acked)
      done;
      Engine.sleep (Engine.ms 5);
      checki "size-triggered flush" 3 !acked;
      Engine.stop ())

let test_truncate () =
  Engine.run (fun () ->
      let k = Kafka.create () in
      let c = Kafka.connect k ~name:"test" in
      produce c [ record 1; record 2; record 3 ];
      Kafka.truncate_partition c ~partition:0 1;
      checki "tail lowered" 1 (Kafka.partition_tail k ~partition:0);
      produce c [ record 9 ];
      let records = Kafka.fetch c ~partition:0 ~offset:0 ~max:10 in
      checki "two records" 2 (List.length records);
      Engine.stop ())

let test_client_log_roundtrip () =
  Engine.run (fun () ->
      let config = { Kafka.default_config with linger = Engine.us 200 } in
      let k = Kafka.create ~config () in
      let log = Kafka.client_log k in
      for i = 1 to 10 do
        checkb "acked" true (log.append ~size:128 ~data:(string_of_int i))
      done;
      checki "tail" 10 (log.check_tail ());
      let records = log.read ~from:0 ~len:10 in
      checki "all" 10 (List.length records);
      Engine.stop ())

let test_erwin_over_kafka_total_order () =
  Engine.run (fun () ->
      let sys =
        Kafka_erwin.create
          ~kafka_config:{ Kafka.default_config with npartitions = 3 } ()
      in
      let done_ = ref 0 in
      for w = 0 to 2 do
        let log = Kafka_erwin.client sys in
        Engine.spawn (fun () ->
            for i = 1 to 20 do
              ignore (log.append ~size:512 ~data:(Printf.sprintf "%d-%d" w i))
            done;
            incr done_)
      done;
      let wq = Waitq.create () in
      ignore (Waitq.await_timeout wq ~timeout:(Engine.ms 100) (fun () -> !done_ = 3));
      Engine.sleep (Engine.ms 20);
      let log = Kafka_erwin.client sys in
      checki "tail" 60 (log.check_tail ());
      let records = log.read ~from:0 ~len:60 in
      checki "all across partitions" 60 (List.length records);
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (r : Lazylog.Types.record) ->
          checkb "unique" false (Hashtbl.mem seen r.data);
          Hashtbl.replace seen r.data ())
        records;
      Engine.stop ())

(* Erwin-m over Kafka runs the pipelined orderer. With batches in
   flight together, position p still lands at offset p / 3 of partition
   p mod 3 in position order, each append is in Kafka once, and the
   follower replicas are garbage collected with no follower RPC. 4 KB
   records make a large batch's produce slower on the wire than the
   smaller batch behind it, so only per-pair FIFO from one sending node
   keeps each writer's appends in its own order. *)
let test_erwin_over_kafka_pipelined () =
  Engine.run (fun () ->
      let nparts = 3 and writers = 4 and per = 200 in
      let n = writers * per in
      let ((cluster, kafka) as sys) =
        Kafka_erwin.create
          ~cfg:{ Lazylog.Config.default with pipeline_depth = 4 }
          ~kafka_config:{ Kafka.default_config with npartitions = nparts }
          ()
      in
      let max_inflight = ref 0 in
      Engine.spawn (fun () ->
          while true do
            max_inflight :=
              max !max_inflight cluster.Lazylog.Erwin_common.inflight_batches;
            Engine.sleep (Engine.us 5)
          done);
      for w = 0 to writers - 1 do
        let log = Kafka_erwin.client sys in
        Engine.spawn (fun () ->
            for i = 1 to per do
              ignore (log.append ~size:4096 ~data:(Printf.sprintf "%d-%d" w i))
            done)
      done;
      let deadline = Engine.now () + Engine.sec 1 in
      while
        cluster.Lazylog.Erwin_common.stable_gp < n && Engine.now () < deadline
      do
        Engine.sleep (Engine.us 100)
      done;
      checki "stable_gp" n cluster.Lazylog.Erwin_common.stable_gp;
      checkb "batches overlapped" true (!max_inflight > 1);
      checki "replicas" 3 (List.length cluster.Lazylog.Erwin_common.replicas);
      List.iter
        (fun r ->
          checki "sequencing log drained" 0
            (Lazylog.Seq_log.live_count (Lazylog.Seq_replica.log r)))
        cluster.Lazylog.Erwin_common.replicas;
      let records = Array.of_list ((Kafka_erwin.client sys).read ~from:0 ~len:n) in
      checki "read all" n (Array.length records);
      let c = Kafka.connect kafka ~name:"check" in
      let held =
        Array.init nparts (fun pid ->
            checki "partition tail"
              ((n - pid + nparts - 1) / nparts)
              (Kafka.partition_tail kafka ~partition:pid);
            Kafka.fetch c ~partition:pid ~offset:0 ~max:n)
      in
      Array.iteri
        (fun p (r : Lazylog.Types.record) ->
          match List.assoc_opt (p / nparts) held.(p mod nparts) with
          | Some (k : Lazylog.Types.record) ->
            Alcotest.(check string) "position p at offset p / n" k.data r.data
          | None -> Alcotest.failf "position %d not in Kafka" p)
        records;
      let last = Array.make writers 0 in
      Array.iter
        (fun (r : Lazylog.Types.record) ->
          Scanf.sscanf r.data "%d-%d" (fun w i ->
              checkb "a writer's appends in its order" true (i > last.(w));
              last.(w) <- i))
        records;
      let want =
        List.concat
          (List.init writers (fun w ->
               List.init per (fun i -> Printf.sprintf "%d-%d" w (i + 1))))
      in
      Alcotest.(check (list string))
        "every append exactly once" (List.sort compare want)
        (List.sort compare
           (Array.to_list
              (Array.map (fun (r : Lazylog.Types.record) -> r.data) records)));
      Engine.stop ())

let test_erwin_over_kafka_is_fast () =
  Engine.run (fun () ->
      let sys = Kafka_erwin.create () in
      let log = Kafka_erwin.client sys in
      ignore (log.append ~size:4096 ~data:"warm");
      let t0 = Engine.now () in
      ignore (log.append ~size:4096 ~data:"x");
      let erwin_d = Engine.now () - t0 in
      checkb "microseconds, not milliseconds" true (erwin_d < Engine.us 50);
      Engine.stop ())

let () =
  Alcotest.run "kafka"
    [
      ( "broker",
        [
          Alcotest.test_case "produce/fetch" `Quick test_produce_fetch;
          Alcotest.test_case "truncate" `Quick test_truncate;
        ] );
      ( "producer",
        [
          Alcotest.test_case "linger batches" `Quick
            test_producer_linger_batches;
          Alcotest.test_case "max-batch flush" `Quick
            test_producer_max_batch_flushes;
          Alcotest.test_case "client_log roundtrip" `Quick
            test_client_log_roundtrip;
        ] );
      ( "erwin-over-kafka",
        [
          Alcotest.test_case "total order across partitions" `Quick
            test_erwin_over_kafka_total_order;
          Alcotest.test_case "1RTT appends" `Quick test_erwin_over_kafka_is_fast;
          Alcotest.test_case "pipelined ordering" `Quick
            test_erwin_over_kafka_pipelined;
        ] );
    ]
