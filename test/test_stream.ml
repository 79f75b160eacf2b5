(* Tests for the streaming delivery subsystem (lib/stream): in-order
   exactly-once push off the stable tail, credit-based flow control,
   cursor replication through the sequencing layer, manager recovery
   across a view change, redelivery + dedup under message loss, and
   consumer crash/restart with a durable delivery cursor. *)

open Ll_sim
open Ll_net
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let sub_cfg ?(order_interval = Engine.us 20) () =
  { Config.default with Config.subscriptions = true; order_interval }

let append_n (log : Log_api.t) n =
  for i = 1 to n do
    checkb "acked" true (log.append ~size:256 ~data:(string_of_int i))
  done

(* Spin until the subscriber's durable cursor reaches [upto] (delivery is
   asynchronous push) or the deadline passes. *)
let settle ?(timeout = Engine.ms 50) sub ~upto =
  let deadline = Engine.now () + timeout in
  while Ll_stream.Subscriber.next sub < upto && Engine.now () < deadline do
    Engine.sleep (Engine.ms 1)
  done

(* --- in-order delivery --- *)

let test_in_order_delivery () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let got = ref [] in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"audit"
          ~on_record:(fun gp r -> got := (gp, r.Types.data) :: !got)
          ()
      in
      append_n log 50;
      settle sub ~upto:50;
      checki "all records delivered" 50 (Ll_stream.Subscriber.delivered sub);
      checki "durable cursor past the tail" 50 (Ll_stream.Subscriber.next sub);
      checki "no duplicates reached the app" 0
        (Ll_stream.Subscriber.dup_skipped sub);
      let expected = List.init 50 (fun i -> (i, string_of_int (i + 1))) in
      Alcotest.(check (list (pair int string)))
        "in order, gap-free, right payloads" expected (List.rev !got);
      checki "manager cursor tracks the acked frontier" 50
        (Option.get (Ll_stream.Manager.cursor_of mgr "audit"));
      Engine.stop ())

(* --- credit-based flow control --- *)

let test_flow_control_window () =
  Engine.run (fun () ->
      (* Window smaller than the push cap: every batch must be clamped to
         the consumer's credits, not the manager's preferred size. *)
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"slow" ~window:4 ()
      in
      append_n log 100;
      settle sub ~upto:100;
      checki "all records delivered" 100 (Ll_stream.Subscriber.delivered sub);
      checkb "batches clamped to the 4-credit window" true
        (Ll_stream.Subscriber.max_batch sub <= 4);
      checkb "batching actually happened" true
        (Ll_stream.Subscriber.max_batch sub >= 2);
      Engine.stop ())

(* --- cursor durability: replication and view-change recovery --- *)

let test_cursor_durable_across_view_change () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"audit" ()
      in
      append_n log 30;
      settle sub ~upto:30;
      Engine.sleep (Engine.ms 2);
      (* one-way syncs in flight *)
      (* The acked cursor was replicated to every sequencing replica. *)
      List.iter
        (fun r ->
          match Seq_replica.sub_cursor r "audit" with
          | Some (_epoch, c) ->
            checki
              (Printf.sprintf "replica %d holds the cursor"
                 (Seq_replica.node_id r))
              30 c
          | None -> Alcotest.fail "replica missing the replicated cursor")
        cluster.Erwin_common.replicas;
      let epoch0 = Option.get (Ll_stream.Manager.epoch_of mgr "audit") in
      (* Kill the leader: the view change runs seal/flush/install, and the
         manager rebuilds its cursors from the surviving replicas. *)
      Erwin_common.crash_replica cluster (Erwin_common.leader cluster);
      let deadline = Engine.now () + Engine.ms 100 in
      while Ll_stream.Manager.recoveries mgr = 0 && Engine.now () < deadline do
        Engine.sleep (Engine.ms 1)
      done;
      checki "manager recovered once" 1 (Ll_stream.Manager.recoveries mgr);
      checkb "epoch bumped by recovery" true
        (Option.get (Ll_stream.Manager.epoch_of mgr "audit") > epoch0);
      checki "cursor rebuilt from the replicated floor" 30
        (Option.get (Ll_stream.Manager.cursor_of mgr "audit"));
      (* Delivery continues exactly-once in the new view. *)
      append_n log 20;
      settle sub ~upto:50;
      checki "post-view-change records delivered once" 50
        (Ll_stream.Subscriber.delivered sub);
      Engine.stop ())

(* --- redelivery + dedup under message loss --- *)

let test_exactly_once_under_loss () =
  Engine.run ~seed:7 (fun () ->
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"audit" ~window:2 ()
      in
      (* Lossy fabric while the stream is live: pushes and acks both get
         dropped, forcing the at-least-once retry; the durable [next]
         plus cumulative acks must still deliver each record exactly
         once. The tiny window maximizes the number of push round-trips
         exposed to loss. *)
      Fabric.set_drop_probability cluster.Erwin_common.fabric 0.2;
      append_n log 60;
      settle sub ~upto:60 ~timeout:(Engine.ms 500);
      Fabric.set_drop_probability cluster.Erwin_common.fabric 0.0;
      settle sub ~upto:60;
      checki "every record delivered exactly once" 60
        (Ll_stream.Subscriber.delivered sub);
      checkb "loss actually caused redeliveries" true
        (Ll_stream.Manager.redeliveries mgr "audit" > 0);
      checkb "dedup filtered the redelivered prefixes" true
        (Ll_stream.Subscriber.dup_skipped sub > 0);
      Engine.stop ())

(* --- duplicate push filtered by the consumer --- *)

let test_duplicate_push_dedup () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"audit" ()
      in
      append_n log 10;
      settle sub ~upto:10;
      checki "delivered the prefix" 10 (Ll_stream.Subscriber.delivered sub);
      (* Replay an already-delivered batch by hand, as a duplicated
         in-flight push would: same epoch, positions below [next]. The
         consumer must ack its durable cursor and deliver nothing. *)
      let ep = Erwin_common.new_endpoint cluster ~name:"test.replayer" in
      let record =
        { Types.rid = { Types.Rid.client = 0; seq = 1 };
          size = 256;
          data = "1";
          log = 0 }
      in
      let req =
        Proto.St_push
          {
            name = "audit";
            epoch = Ll_stream.Subscriber.epoch sub;
            records = [ (0, record) ];
          }
      in
      (match
         Rpc.call_timeout ep
           ~dst:(Ll_stream.Subscriber.node_id sub)
           ~size:(Proto.req_size req) ~timeout:(Engine.ms 10) req
       with
      | Some (Proto.R_sub_ack { upto; _ }) ->
        checki "ack still carries the durable cursor" 10 upto
      | Some _ -> Alcotest.fail "wrong reply shape"
      | None -> Alcotest.fail "replayed push timed out");
      checki "duplicate never reached the app" 10
        (Ll_stream.Subscriber.delivered sub);
      checki "dup was counted, not delivered" 1
        (Ll_stream.Subscriber.dup_skipped sub);
      (* A push branded with a stale epoch is refused outright. *)
      let stale =
        Proto.St_push
          { name = "audit"; epoch = 0; records = [ (0, record) ] }
      in
      (match
         Rpc.call_timeout ep
           ~dst:(Ll_stream.Subscriber.node_id sub)
           ~size:(Proto.req_size stale) ~timeout:(Engine.ms 10) stale
       with
      | Some (Proto.R_sub_ack { credits; _ }) ->
        checki "stale push answered with zero credits" 0 credits
      | Some _ -> Alcotest.fail "wrong reply shape"
      | None -> Alcotest.fail "stale push timed out");
      checki "stale push delivered nothing" 10
        (Ll_stream.Subscriber.delivered sub);
      Engine.stop ())

(* --- consumer crash / restart --- *)

let test_consumer_crash_restart () =
  Engine.run (fun () ->
      let cluster = Erwin_m.create ~cfg:(sub_cfg ()) () in
      let log = Erwin_m.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let got = ref [] in
      let sub =
        Ll_stream.Subscriber.create cluster
          ~manager:(Ll_stream.Manager.endpoint_id mgr)
          ~name:"audit" ~consume:(Engine.us 5)
          ~on_record:(fun gp _ -> got := gp :: !got)
          ()
      in
      (* Append continuously while the consumer dies mid-stream. *)
      Engine.spawn ~name:"test.writer" (fun () ->
          for i = 1 to 80 do
            ignore (log.append ~size:256 ~data:(string_of_int i) : bool);
            Engine.sleep (Engine.us 20)
          done);
      Engine.sleep (Engine.us 500);
      Ll_stream.Subscriber.crash sub;
      Engine.sleep (Engine.ms 1);
      (* in-flight pushes and acks die with the node *)
      Ll_stream.Subscriber.restart sub;
      settle sub ~upto:80 ~timeout:(Engine.ms 200);
      checki "every record delivered exactly once" 80
        (Ll_stream.Subscriber.delivered sub);
      checkb "re-attach opened a fresh epoch" true
        (Ll_stream.Subscriber.epoch sub > 1);
      let delivered_order = List.rev !got in
      Alcotest.(check (list int))
        "delivery stayed in order and gap-free across the crash"
        (List.init 80 Fun.id) delivered_order;
      Engine.stop ())

(* --- erwin-st: map-resolved fetch path, two independent subscribers --- *)

let test_erwin_st_two_subscribers () =
  Engine.run (fun () ->
      let cfg = { (sub_cfg ()) with Config.nshards = 3 } in
      let cluster = Erwin_st.create ~cfg () in
      let log = Erwin_st.client cluster in
      let mgr = Ll_stream.Manager.start cluster in
      let mk name =
        let got = ref [] in
        let sub =
          Ll_stream.Subscriber.create cluster
            ~manager:(Ll_stream.Manager.endpoint_id mgr)
            ~name
            ~on_record:(fun _ r -> got := r.Types.data :: !got)
            ()
        in
        (sub, got)
      in
      let sub_a, got_a = mk "a" in
      let sub_b, got_b = mk "b" in
      for i = 1 to 60 do
        checkb "acked" true (log.append ~size:512 ~data:(string_of_int i))
      done;
      settle sub_a ~upto:60;
      settle sub_b ~upto:60;
      let expected = List.init 60 (fun i -> string_of_int (i + 1)) in
      Alcotest.(check (list string))
        "subscriber a saw the whole log in order" expected (List.rev !got_a);
      Alcotest.(check (list string))
        "subscriber b saw the whole log in order" expected (List.rev !got_b);
      checki "independent cursors both at the tail" 60
        (min (Ll_stream.Subscriber.next sub_a) (Ll_stream.Subscriber.next sub_b));
      Engine.stop ())

let () =
  Alcotest.run "stream"
    [
      ( "delivery",
        [
          Alcotest.test_case "in-order delivery" `Quick test_in_order_delivery;
          Alcotest.test_case "flow-control window" `Quick
            test_flow_control_window;
          Alcotest.test_case "erwin-st two subscribers" `Quick
            test_erwin_st_two_subscribers;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "cursor durable across view change" `Quick
            test_cursor_durable_across_view_change;
          Alcotest.test_case "exactly once under loss" `Quick
            test_exactly_once_under_loss;
          Alcotest.test_case "duplicate push dedup" `Quick
            test_duplicate_push_dedup;
          Alcotest.test_case "consumer crash restart" `Quick
            test_consumer_crash_restart;
        ] );
    ]
