(** Simulated block storage device.

    A disk serializes all operations and charges
    [base_latency + bytes * ns_per_byte] per operation, so sustained
    throughput is bounded by the device's bandwidth and saturation shows up
    as queueing delay — exactly how the paper's SATA-SSD-bound shards
    behave (~34 K x 4 KB appends/s on the x1170 cluster). *)

open Ll_sim

type t

val create :
  ?base_latency:Engine.time -> ?ns_per_byte:float -> ?name:string -> unit -> t
(** Defaults model a SATA SSD: 20 us base latency, 7.0 ns/B
    (~140 MB/s sustained writes). *)

val sata_ssd : unit -> t
val nvme_ssd : unit -> t
(** NVMe-class device: 8 us base, 3.5 ns/B (~285 MB/s of sustained log
    writes once filesystem and journaling amplification are paid — the
    effective per-replica rate behind the paper's ~70 K x 4 KB appends/s
    per Erwin-st shard on the c6525 cluster). *)

(** {1 Fail-slow injection}

    Gray-failure device modes: the disk keeps completing every operation
    (no errors — a health check over it stays green), it is just slow. *)

type fail_slow =
  | Healthy
  | Stutter of { period : Engine.time; stall : Engine.time }
      (** Every [period], the next operation to start pays an extra
          [stall] — periodic multi-ms pauses in the style of firmware GC. *)
  | Degrade of { factor : float; until : Engine.time }
      (** Sustained slowdown until [until]: service is [factor] times
          slower, and an operation that runs past [until] does the rest
          of its work at the healthy rate, so a short window leaves no
          stall [factor] times the work booked in it. *)

val set_fail_slow : t -> fail_slow -> unit
(** Takes effect for operations that start after the call; [Healthy]
    heals. Queued work already booked on the device keeps its old
    completion time. *)

val write : t -> bytes:int -> unit
(** Blocks the calling fiber until the write is persistent. *)

val queue_depth_time : t -> Engine.time
(** How far in the future the device is already booked (0 = idle now). *)

val bytes_written : t -> int
val ops : t -> int
