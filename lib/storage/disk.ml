open Ll_sim

(* Fail-slow (gray) device modes: the disk keeps serving every request —
   nothing errors, heartbeats over it stay green — it is just slow, either
   in periodic bursts (firmware GC pauses, write-cache flushes) or as a
   sustained slowdown (dying media, thermal throttling). *)
type fail_slow =
  | Healthy
  | Stutter of { period : Engine.time; stall : Engine.time }
  | Degrade of { factor : float; until : Engine.time }

type t = {
  base_latency : Engine.time;
  ns_per_byte : float;
  name : string;
  mutable next_free : Engine.time;
  mutable bytes_written : int;
  mutable ops : int;
  mutable mode : fail_slow;
  (* Stutter cursor: the next instant at which a stall fires. *)
  mutable next_stall : Engine.time;
}

let create ?(base_latency = Engine.us 20) ?(ns_per_byte = 7.0)
    ?(name = "disk") () =
  {
    base_latency;
    ns_per_byte;
    name;
    next_free = 0;
    bytes_written = 0;
    ops = 0;
    mode = Healthy;
    next_stall = 0;
  }

let sata_ssd () = create ~base_latency:(Engine.us 20) ~ns_per_byte:7.0 ()

let nvme_ssd () = create ~base_latency:(Engine.us 8) ~ns_per_byte:3.5 ()

let set_fail_slow t mode =
  t.mode <- mode;
  match mode with
  | Stutter { period; _ } -> t.next_stall <- Engine.now () + period
  | Healthy | Degrade _ -> ()

let operate t ~bytes =
  let now = Engine.now () in
  let start = if t.next_free > now then t.next_free else now in
  let dur =
    t.base_latency + int_of_float (t.ns_per_byte *. float_of_int bytes)
  in
  let dur =
    match t.mode with
    | Healthy -> dur
    | Degrade { factor; until } ->
      (* Work done before [until] runs [factor] times slower; what is
         left then runs at the healthy rate. *)
      let slow = int_of_float (factor *. float_of_int dur) in
      if start + slow <= until then slow
      else if start >= until then dur
      else
        until - start
        + dur - int_of_float (float_of_int (until - start) /. factor)
    | Stutter { period; stall } ->
      if start >= t.next_stall then begin
        t.next_stall <- start + period;
        dur + stall
      end
      else dur
  in
  t.next_free <- start + dur;
  t.ops <- t.ops + 1;
  Engine.sleep (t.next_free - now)

let write t ~bytes =
  t.bytes_written <- t.bytes_written + bytes;
  operate t ~bytes

let queue_depth_time t =
  let now = Engine.now () in
  if t.next_free > now then t.next_free - now else 0

let bytes_written t = t.bytes_written
let ops t = t.ops
