(* Log_api conformance: one behavioral suite, run against every shared-log
   implementation in the repository. Each backend must provide the figure 2
   semantics: durable acked appends, position-ordered reads that return
   what was appended, a tail that counts durable records, prefix trim, and
   (where offered) an appendSync that returns consistent positions. *)

open Ll_sim
open Lazylog

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

type backend = {
  bname : string;
  make : unit -> (unit -> Log_api.t);
      (** build the system inside a sim; returns a client factory *)
  has_trim : bool;
  settle : Engine.time;  (** post-append settling time before final reads *)
}

let backends =
  [
    {
      bname = "erwin-m";
      make =
        (fun () ->
          let c = Erwin_m.create ~cfg:{ Config.default with nshards = 2 } () in
          fun () -> Erwin_m.client c);
      has_trim = true;
      settle = Engine.ms 5;
    };
    {
      bname = "erwin-st";
      make =
        (fun () ->
          let c = Erwin_st.create ~cfg:{ Config.default with nshards = 2 } () in
          fun () -> Erwin_st.client c);
      has_trim = true;
      settle = Engine.ms 5;
    };
    (* The same two systems with the client-side group-commit batcher on:
       the full Log_api contract must hold when every append rides a
       coalesced multi-entry Sr_append. *)
    {
      bname = "erwin-m batched";
      make =
        (fun () ->
          let cfg =
            {
              Config.default with
              nshards = 2;
              linger = Some (Engine.us 5);
            }
          in
          let c = Erwin_m.create ~cfg () in
          fun () -> Erwin_m.client c);
      has_trim = true;
      settle = Engine.ms 5;
    };
    {
      bname = "erwin-st batched";
      make =
        (fun () ->
          let cfg =
            {
              Config.default with
              nshards = 2;
              linger = Some (Engine.us 5);
            }
          in
          let c = Erwin_st.create ~cfg () in
          fun () -> Erwin_st.client c);
      has_trim = true;
      settle = Engine.ms 5;
    };
    {
      bname = "corfu";
      make =
        (fun () ->
          let c =
            Ll_corfu.Corfu.create
              ~config:{ Ll_corfu.Corfu.default_config with nshards = 2 }
              ()
          in
          fun () -> Ll_corfu.Corfu.client c);
      has_trim = true;
      settle = Engine.ms 1;
    };
    {
      bname = "scalog";
      make =
        (fun () ->
          let c =
            Ll_scalog.Scalog.create
              ~config:
                {
                  Ll_scalog.Scalog.default_config with
                  nshards = 2;
                  rpc_overhead = Engine.us 2;
                }
              ()
          in
          fun () -> Ll_scalog.Scalog.client c);
      has_trim = true;
      settle = Engine.ms 2;
    };
    {
      bname = "kafka";
      make =
        (fun () ->
          let k =
            Ll_kafka.Kafka.create
              ~config:
                { Ll_kafka.Kafka.default_config with linger = Engine.us 100 }
              ()
          in
          fun () -> Ll_kafka.Kafka.client_log k);
      has_trim = false;
      settle = Engine.ms 2;
    };
  ]

let conformance b () =
  Engine.run (fun () ->
      let factory = b.make () in
      let log = factory () in
      (* appends ack *)
      for i = 1 to 20 do
        checkb "append acked" true
          (log.Log_api.append ~size:128 ~data:(string_of_int i))
      done;
      Engine.sleep b.settle;
      (* tail counts durable records *)
      checki "tail" 20 (log.Log_api.check_tail ());
      (* reads return the appended data, in order, once *)
      let records = log.Log_api.read ~from:0 ~len:20 in
      checki "read all" 20 (List.length records);
      List.iteri
        (fun i (r : Types.record) ->
          Alcotest.(check string)
            (Printf.sprintf "record %d" i)
            (string_of_int (i + 1))
            r.data)
        records;
      (* partial range read *)
      let sub = log.Log_api.read ~from:5 ~len:3 in
      Alcotest.(check (list string))
        "range read" [ "6"; "7"; "8" ]
        (List.map (fun (r : Types.record) -> r.Types.data) sub);
      (* a second client sees the same log *)
      let log2 = factory () in
      let again = log2.Log_api.read ~from:0 ~len:20 in
      Alcotest.(check (list string))
        "second client agrees"
        (List.map (fun (r : Types.record) -> r.Types.data) records)
        (List.map (fun (r : Types.record) -> r.Types.data) again);
      (* trim removes exactly the prefix *)
      if b.has_trim then begin
        checkb "trim" true (log.Log_api.trim ~upto:10);
        let rest = log.Log_api.read ~from:10 ~len:10 in
        checki "suffix intact" 10 (List.length rest);
        let gone = log.Log_api.read ~from:0 ~len:20 in
        checki "prefix dropped" 10 (List.length gone)
      end;
      (* appendSync (when offered) returns the next positions *)
      (match log.Log_api.append_sync with
      | Some f ->
        let p1 = f ~size:64 ~data:"s1" in
        let p2 = f ~size:64 ~data:"s2" in
        checki "sync position" 20 p1;
        checki "sync position 2" 21 p2
      | None -> ());
      Engine.stop ())

let () =
  Alcotest.run "conformance"
    [
      ( "log_api",
        List.map
          (fun b -> Alcotest.test_case b.bname `Quick (conformance b))
          backends );
    ]
