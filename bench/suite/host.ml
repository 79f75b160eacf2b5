(* Host-side measurement helpers: CPU time, allocation, order statistics
   and a growable int vector for per-simulation samples.

   CPU time is user + system from [Unix.times] (getrusage), which excludes
   time the host spent running other tenants, so it is the host number to
   trust on a shared machine; wall clock is never used for a metric. *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let words () = Gc.minor_words ()

(* CPU ns per iteration of a fixed stdlib-only loop (hashing, small
   allocations and pointer chasing over a table of a few MB; about 2 ms
   per call). Nothing in it depends on this repository's code, so it
   tracks only how fast the host is running right now. *)
let ref_table = Hashtbl.create 65536

let ref_ns () =
  let iters = 25_000 in
  let c0 = cpu () in
  for i = 1 to iters do
    let k = (i * 40503) land 65535 in
    Hashtbl.replace ref_table k [ i; k ];
    if i land 3 = 0 then Hashtbl.remove ref_table ((k * 7) land 65535)
  done;
  (cpu () -. c0) *. 1e9 /. float_of_int iters

(* The reference loop's speed, in ns per iteration, that times measured
   against it are converted back to seconds at: about its speed inside
   the benchmark's windows on the 2-vCPU Xeon VM it was defined on. *)
let nominal_ref_ns = 100.0

(* Words reachable right now: a full major collection first, so the count
   depends only on what the program holds, not on how far the collector
   had got. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let words_to_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of an unsorted int array (p in 0..100). *)
let percentile_int (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let s = Array.copy a in
    Array.sort Int.compare s;
    let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))
  end

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Array.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let to_array t = Array.sub t.a 0 t.n
end
