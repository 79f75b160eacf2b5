open Ll_sim

type node_id = Fabric.node_id

type ('req, 'resp) msg =
  | Request of int * 'req
  | Response of int * 'resp
  | Oneway of 'req

(* Per-peer latency scoring, RFC-6298 style: srtt is an EWMA (gain 1/8),
   dev an EWMA of the deviation (gain 1/4), and the score srtt + 4*dev is
   a cheap upper-percentile proxy. Samples are taken on every response at
   the demux, so scoring is always on; it draws nothing from the rng and
   schedules nothing, keeping knob-off runs schedule-identical. An
   endpoint keeps its peers' ids sorted in an int array and their
   (srtt, dev, samples) triples at stride 3 in a float array (the sample
   count too, exact far beyond any run), both empty until the first
   sample: updating a score boxes nothing and an idle endpoint holds
   none of it. *)
let peer_stride = 3

(* What a server endpoint adds, created by {!set_handler}, so a
   client-only endpoint carries none of it. The endpoint serves one
   request at a time on its "CPU": while a request's service time runs,
   the request waits in the [s_] fields for [step], the one event that
   ends its service. A request for the bare path waits in the [b_]
   fields for [drain], the one event scheduled where its handler would
   start. Both events are [Engine.call_at_with] of a top-level function
   on the server record, so the record holds no closure for them.

   A request travels as its sender and token (the token its response
   carries, [no_token] for a one-way message); no reply closure is made
   for it unless a handler fiber starts or the ingress hook takes it.
   The bare path answers through the one [bare_reply], which sends for
   the request in the [r_] fields while the bare handler runs. *)
type ('req, 'resp) server = {
  ep : ('req, 'resp) endpoint;
  mutable handler :
    src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> unit;
  handler_name : string;  (* fiber name for every request's handler *)
  mutable s_src : node_id;
  mutable s_token : int;
  mutable s_req : Obj.t;
  mutable b_busy : bool;  (* [drain] is scheduled for the [b_] request *)
  mutable b_src : node_id;
  mutable b_token : int;
  mutable b_req : Obj.t;
  mutable b_reply : ?size:int -> 'resp -> unit;  (* [unbuilt], or {!serve}'s *)
  mutable r_src : node_id;
  mutable r_token : int;
  mutable r_state : int;  (* [r_idle], [r_running] or [r_replied] *)
  bare_reply : ?size:int -> 'resp -> unit;
}

(* Pending calls live in an open-addressing table keyed by token, flat
   in two arrays: [pk] holds each slot's token ([no_call] when free), send
   time, and destination and group member packed in one int, at stride
   3; [pv] holds the call's ivar or group. Tokens are sequential, so they
   are homed by {!Int_table.home}'s multiplicative hash: homed at
   [token land mask], the calls in flight would fill one contiguous run
   of slots, and every removal would walk to the end of it, O(pending
   calls) per completion under a backlog. An endpoint starts with empty
   arrays and allocates four slots (18 words) at its first call, eight
   (34 words) past three calls in flight: the table stays within the 38
   words of the 32-bucket [Hashtbl] it replaces for up to six calls in
   flight, and a call allocates no record, bucket or option.

   Messages are received without a fiber: [rx] is a callback waker that
   runs [on_msg] on each packet delivered while the endpoint waits, and
   [on_msg] takes any queued ones after it (see [receive]). *)
and ('req, 'resp) endpoint = {
  fabric : ('req, 'resp) msg Fabric.t;
  node : ('req, 'resp) msg Fabric.node;
  mutable pk : int array;
  mutable pv : Obj.t array;
  mutable pn : int;  (* pending calls *)
  mutable peer_ids : int array;  (* sorted; the first [npeers] are live *)
  mutable peer_fs : float array;
  mutable npeers : int;
  mutable next_token : int;
  mutable srv : ('req, 'resp) server option;
  (* The non-blocking fast path tried before the handler; see {!serve}. *)
  mutable bare :
    (src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> bool)
      option;
  mutable service_time : 'req -> Engine.time;
  (* Ingress scheduler hook: when installed, every incoming request is
     offered to the scheduler before the default serial service-time
     charge. Returning [true] means the scheduler took ownership (queued
     the request for its own service discipline, or shed it with an
     immediate reply); [false] falls through to the default path —
     schedulers bypass traffic they do not classify. *)
  mutable ingress :
    (src:node_id -> 'req -> reply:(?size:int -> 'resp -> unit) -> bool)
      option;
  mutable rx : ('req, 'resp) msg Fabric.packet Engine.waker;
  on_msg : ('req, 'resp) msg Fabric.packet -> unit;
}

(* Per-domain counters over every endpoint in the run — the retry-path
   analogue of Engine.timers_cancelled. *)
type counter_snapshot = {
  cs_timeouts : int;
  cs_retries : int;
  cs_shed : int;  (* always 0; see rpc.mli *)
  cs_hedges_fired : int;
  cs_hedges_won : int;
}

type counters = {
  mutable c_timeouts : int;
  mutable c_retries : int;
  mutable c_hedges_fired : int;
  mutable c_hedges_won : int;
  mutable c_table_steps : int;
}

let dls_counters : counters Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        c_timeouts = 0;
        c_retries = 0;
        c_hedges_fired = 0;
        c_hedges_won = 0;
        c_table_steps = 0;
      })

let ctrs () = Domain.DLS.get dls_counters

let counters () =
  let c = ctrs () in
  {
    cs_timeouts = c.c_timeouts;
    cs_retries = c.c_retries;
    cs_shed = 0;
    cs_hedges_fired = c.c_hedges_fired;
    cs_hedges_won = c.c_hedges_won;
  }

let counters_diff ~before ~after =
  {
    cs_timeouts = after.cs_timeouts - before.cs_timeouts;
    cs_retries = after.cs_retries - before.cs_retries;
    cs_shed = 0;
    cs_hedges_fired = after.cs_hedges_fired - before.cs_hedges_fired;
    cs_hedges_won = after.cs_hedges_won - before.cs_hedges_won;
  }

let node t = t.node
let endpoint_id t = Fabric.id t.node

(* Index of [dst] among the ids in [lo, hi), else [-1 - i] where [i] is
   the index it would take. *)
let rec peer_index ids dst lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let d = Array.unsafe_get ids mid in
    if d = dst then mid
    else if d < dst then peer_index ids dst (mid + 1) hi
    else peer_index ids dst lo mid

let find_peer t dst = peer_index t.peer_ids dst 0 t.npeers

(* Make room for a peer at index [i], doubling both arrays (or allocating
   the first four peers) when full. *)
let insert_peer t i dst =
  let n = t.npeers in
  if n = Array.length t.peer_ids then begin
    let cap = if n = 0 then 4 else 2 * n in
    let ids = Array.make cap 0 and fs = Array.make (peer_stride * cap) 0.0 in
    Array.blit t.peer_ids 0 ids 0 n;
    Array.blit t.peer_fs 0 fs 0 (peer_stride * n);
    t.peer_ids <- ids;
    t.peer_fs <- fs
  end;
  Array.blit t.peer_ids i t.peer_ids (i + 1) (n - i);
  Array.blit t.peer_fs (peer_stride * i) t.peer_fs
    (peer_stride * (i + 1))
    (peer_stride * (n - i));
  t.peer_ids.(i) <- dst;
  t.npeers <- n + 1

let note_sample t dst rtt =
  let rtt = float_of_int rtt in
  let i = find_peer t dst in
  if i < 0 then begin
    let i = -1 - i in
    insert_peer t i dst;
    let fs = t.peer_fs and j = peer_stride * i in
    fs.(j) <- rtt;
    fs.(j + 1) <- rtt /. 2.0;
    fs.(j + 2) <- 1.0
  end
  else begin
    let fs = t.peer_fs and j = peer_stride * i in
    let srtt = fs.(j) and dev = fs.(j + 1) in
    let err = rtt -. srtt in
    fs.(j) <- srtt +. (0.125 *. err);
    fs.(j + 1) <- dev +. (0.25 *. (Float.abs err -. dev));
    fs.(j + 2) <- fs.(j + 2) +. 1.0
  end

let note_peer_sample t dst rtt = note_sample t dst rtt

let peer_score t dst =
  let i = find_peer t dst in
  if i < 0 then None
  else
    let j = peer_stride * i in
    Some (t.peer_fs.(j) +. (4.0 *. t.peer_fs.(j + 1)))

let peer_samples t dst =
  let i = find_peer t dst in
  if i < 0 then 0 else int_of_float t.peer_fs.((peer_stride * i) + 2)

let forget_peer t dst =
  let i = find_peer t dst in
  if i >= 0 then begin
    let n = t.npeers - 1 in
    Array.blit t.peer_ids (i + 1) t.peer_ids i (n - i);
    Array.blit t.peer_fs
      (peer_stride * (i + 1))
      t.peer_fs (peer_stride * i)
      (peer_stride * (n - i));
    t.npeers <- n
  end

let hedge_deadline t ~dsts ~floor =
  (* Lower-median of the peers' scores: an adaptive "this is how long a
     healthy replica takes at a high percentile" deadline that one slow
     outlier cannot inflate (with 2 candidates the faster one wins the
     median; with 3, one straggler never carries it). *)
  let scores = List.filter_map (fun d -> peer_score t d) dsts in
  match List.sort Float.compare scores with
  | [] -> floor
  | sorted ->
    let med = List.nth sorted ((List.length sorted - 1) / 2) in
    let med = int_of_float med in
    if med > floor then med else floor

(* ---------- the pending-call table ---------- *)

let no_call = -1
let no_token = -1 (* a request that wants no response: a one-way message *)
let lone = -1 (* member index of a call outside any group *)
let unit_obj = Obj.repr 0

(* Destination and group member in one int. Node ids are below 2^20
   (the fabric's limit) and so are group sizes. *)
let member_bits = 20
let pack_dst dst member = (dst lsl member_bits) lor (member + 1)
let dst_of d = d lsr member_bits
let member_of d = (d land ((1 lsl member_bits) - 1)) - 1

(* Slot of [token], or the free slot ending its probe chain. The table
   always keeps a free slot, so the loop ends. *)
let probe t token =
  let pk = t.pk and mask = Array.length t.pv - 1 in
  let i = ref (Int_table.home mask token) in
  while
    let k = Array.unsafe_get pk (3 * !i) in
    k <> token && k <> no_call
  do
    i := (!i + 1) land mask
  done;
  !i

let put t token dst member v =
  let i = probe t token in
  t.pk.(3 * i) <- token;
  t.pk.((3 * i) + 1) <- Engine.now ();
  t.pk.((3 * i) + 2) <- pack_dst dst member;
  t.pv.(i) <- v;
  t.pn <- t.pn + 1

(* Double the table (or allocate its first four slots) when one more call
   would fill more than three quarters of it. Hashed keys probe linearly
   in O(1 / (1 - load)^2) slots, so a fuller table would trade the
   sequential-token cliff for a load cliff (with 2 040 calls standing in
   2 048 slots a completion walked 808 slots). Four slots still take
   three calls. *)
let reserve t =
  let cap = Array.length t.pv in
  if 4 * (t.pn + 1) > 3 * cap then begin
    let opk = t.pk and opv = t.pv in
    let ncap = if cap = 0 then 4 else 2 * cap in
    t.pk <- Array.make (3 * ncap) no_call;
    t.pv <- Array.make ncap unit_obj;
    t.pn <- 0;
    for j = 0 to cap - 1 do
      let token = opk.(3 * j) in
      if token <> no_call then begin
        let i = probe t token in
        Array.blit opk (3 * j) t.pk (3 * i) 3;
        t.pv.(i) <- opv.(j);
        t.pn <- t.pn + 1
      end
    done
  end

(* Free slot [i] by backward-shift deletion: later members of its probe
   run move up so every chain stays unbroken, with no tombstones. Returns
   the number of slots the walk looked at past [i]. *)
let remove_at t i =
  let pk = t.pk and pv = t.pv in
  let mask = Array.length pv - 1 in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while pk.(3 * !j) <> no_call do
    let home = Int_table.home mask pk.(3 * !j) in
    (* Move [j] into the hole unless its home lies cyclically in
       (hole, j]. *)
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      Array.blit pk (3 * !j) pk (3 * !hole) 3;
      pv.(!hole) <- pv.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  pk.(3 * !hole) <- no_call;
  pv.(!hole) <- unit_obj;
  t.pn <- t.pn - 1;
  (!j - i) land mask

(* Drop a pending call. [censored] scores the time it has taken so far
   as a sample of its peer's latency, a lower bound. *)
let drop_pending ?(censored = false) t token =
  if t.pn > 0 then begin
    let i = probe t token in
    if t.pk.(3 * i) = token then begin
      if censored then
        note_sample t (dst_of t.pk.((3 * i) + 2))
          (Engine.now () - t.pk.((3 * i) + 1));
      ignore (remove_at t i : int)
    end
  end

(* Register a pending call and send its request; returns the token. *)
let send_call t ~dst ~size member v req =
  let token = t.next_token in
  t.next_token <- token + 1;
  reserve t;
  put t token dst member v;
  Fabric.send t.fabric ~src:t.node ~dst ~size (Request (token, req));
  token

(* ---------- group calls ---------- *)

(* A retrying group's requests, kept to resend them, and each member's
   retry state at stride [stride] in [r_m]: destination, request size,
   tries sent, phase and the instant its phase ends. A member with a
   hedge has its hedge's token, destination and delay at stride 3 in
   [r_hedges], which is empty until the first hedge is given. The timer
   [r_fire] is kept at the earliest instant any member waits for, and
   [round_step] runs one event after it: these are the events of a fiber
   per member that started at the first round, resumed one event after
   its hedge instant or deadline, slept out a backoff, and took the
   reply that completes the group one event before waking the waiter. *)
type rounds = {
  r_tries : int;
  r_length : Engine.time;
  r_backoff : Engine.time;
  r_calls : Obj.t array;  (* each member's request *)
  r_m : int array;
  mutable r_hedges : int array;
  mutable r_failed : int;  (* members that gave up unanswered *)
  mutable r_timer : Engine.timer;
  mutable r_at : Engine.time;  (* when [r_timer] fires, [max_int] if unarmed *)
  mutable r_fire : unit -> unit;
}

let stride = 5
let m_dst = 0
let m_size = 1
let m_sent = 2
let m_phase = 3
let m_due = 4

(* Phases 1-3 wait for [m_due]; replies count in phases 2-4. *)
let ph_idle = 0 (* the first round is still to go out *)
let ph_backoff = 1 (* [m_due] is the resend *)
let ph_hedge = 2 (* in flight; [m_due] is the hedge instant *)
let ph_wait = 3 (* in flight; [m_due] is the deadline *)
let ph_hedge_due = 4 (* the hedge goes out at the next step *)
let ph_expired = 5 (* past its deadline, dropped at the next step *)
let ph_done = 6 (* replied or gave up *)

(* The rounds of every group that does not retry; never mutated. *)
let once =
  { r_tries = 1; r_length = 0; r_backoff = 0; r_calls = [||]; r_m = [||];
    r_hedges = [||]; r_failed = 0; r_timer = Engine.no_timer; r_at = max_int;
    r_fire = ignore }

(* Member [m]'s hedge token, [no_call] unless its hedge is in flight. *)
let twin r m =
  if Array.length r.r_hedges = 0 then no_call else r.r_hedges.(3 * m)

(* A group is one fan-out and its join: each member's reply lands in
   [g_replies] (call order), and only the reply that completes the group
   wakes the one awaiting fiber. [g_count] holds the members called in
   its low [member_bits] bits, the replies still needed above them. *)
type ('req, 'resp) group = {
  g_ep : ('req, 'resp) endpoint;
  g_replies : Obj.t array;  (* [no_reply] until the member answers *)
  g_tokens : int array;  (* [no_call] before its send and once dropped *)
  mutable g_count : int;
  mutable g_waiter : Obj.t;  (* the awaiting fiber's bool waker *)
  g_rounds : rounds;
}

let no_reply = Obj.repr (ref ())
let need_one = 1 lsl member_bits
let called g = g.g_count land (need_one - 1)

(* Drop member [m]'s calls still pending, its hedge's too; the number
   dropped. *)
let drop_calls g m =
  let r = g.g_rounds and n = ref 0 in
  if g.g_tokens.(m) <> no_call then begin
    drop_pending g.g_ep g.g_tokens.(m);
    g.g_tokens.(m) <- no_call;
    incr n
  end;
  if twin r m <> no_call then begin
    drop_pending g.g_ep (twin r m);
    r.r_hedges.(3 * m) <- no_call;
    incr n
  end;
  !n

(* Stop the round clock, drop the calls still pending (beyond a need,
   or after an expired await) and wake the waiter, if any. *)
let group_stop g =
  if g.g_rounds != once then ignore (Engine.cancel g.g_rounds.r_timer : bool);
  for m = 0 to Array.length g.g_tokens - 1 do
    if g.g_replies.(m) == no_reply then ignore (drop_calls g m : int)
  done;
  if g.g_waiter != unit_obj then
    ignore (Engine.wake (Obj.obj g.g_waiter : bool Engine.waker) true : bool)

(* Keep the timer at the earliest instant a member waits for. *)
let arm r =
  let at = ref max_int in
  for m = 0 to Array.length r.r_calls - 1 do
    let ph = r.r_m.((stride * m) + m_phase) in
    if ph >= ph_backoff && ph <= ph_wait then
      at := min !at r.r_m.((stride * m) + m_due)
  done;
  if !at <> r.r_at then begin
    ignore (Engine.cancel r.r_timer : bool);
    r.r_at <- !at;
    if !at < max_int then
      r.r_timer <- Engine.timer_after (!at - Engine.now ()) r.r_fire
  end

(* Send member [m]'s request; a hedge whose delay falls inside the round
   is due first. *)
let send_member g m =
  let r = g.g_rounds and j = stride * m in
  g.g_tokens.(m) <-
    send_call g.g_ep ~dst:r.r_m.(j + m_dst) ~size:r.r_m.(j + m_size) m
      (Obj.repr g) (Obj.obj r.r_calls.(m));
  r.r_m.(j + m_sent) <- r.r_m.(j + m_sent) + 1;
  let hedged =
    Array.length r.r_hedges > 0 && r.r_hedges.((3 * m) + 1) >= 0
  in
  if hedged && r.r_hedges.((3 * m) + 2) < r.r_length then begin
    r.r_m.(j + m_phase) <- ph_hedge;
    r.r_m.(j + m_due) <- Engine.now () + r.r_hedges.((3 * m) + 2)
  end
  else begin
    r.r_m.(j + m_phase) <- ph_wait;
    r.r_m.(j + m_due) <- Engine.now () + r.r_length
  end

let retry g m =
  let c = ctrs () in
  c.c_retries <- c.c_retries + 1;
  send_member g m

(* Drop the expired member's calls, counted as timed out, then resend,
   back off or give up once its tries are spent. After try [n] a backoff
   waits [base / 2 + jitter], [base = backoff * 2^min(n-1, 6)], the
   jitter uniform below [base] and drawn from the engine's RNG. *)
let expire g m =
  let r = g.g_rounds and c = ctrs () and j = stride * m in
  c.c_timeouts <- c.c_timeouts + drop_calls g m;
  let sent = r.r_m.(j + m_sent) in
  if sent >= r.r_tries then begin
    r.r_m.(j + m_phase) <- ph_done;
    r.r_failed <- r.r_failed + 1;
    g.g_count <- g.g_count - need_one
  end
  else if r.r_backoff > 0 then begin
    let base = r.r_backoff * (1 lsl min (sent - 1) 6) in
    let jitter = Random.State.int (Engine.random_state ()) (max 1 base) in
    r.r_m.(j + m_phase) <- ph_backoff;
    r.r_m.(j + m_due) <- Engine.now () + (base / 2) + jitter
  end
  else retry g m

let settle g =
  if g.g_count < need_one then group_stop g else arm g.g_rounds

let round_step g =
  let r = g.g_rounds and ep = g.g_ep and c = ctrs () in
  if g.g_count >= need_one then
    for m = 0 to Array.length g.g_tokens - 1 do
      let j = stride * m in
      let ph = r.r_m.(j + m_phase) in
      if ph = ph_idle then begin
        if called g < Array.length g.g_tokens then
          invalid_arg "Rpc.group: members left uncalled";
        send_member g m
      end
      else if ph = ph_expired then expire g m
      else if ph = ph_hedge_due then begin
        c.c_hedges_fired <- c.c_hedges_fired + 1;
        r.r_hedges.(3 * m) <-
          send_call ep ~dst:r.r_hedges.((3 * m) + 1) ~size:r.r_m.(j + m_size)
            m (Obj.repr g) (Obj.obj r.r_calls.(m));
        r.r_m.(j + m_phase) <- ph_wait;
        r.r_m.(j + m_due) <-
          Engine.now () - r.r_hedges.((3 * m) + 2) + r.r_length
      end
    done;
  settle g

(* The step one event on: [round_step] rides in the event itself, so
   scheduling it makes no closure. *)
let next_step g = Engine.call_at_with (Engine.now ()) round_step g

(* The timer: a hedge instant or a deadline is handled at the next
   step; a backoff that ended resends now. *)
let round_fire g =
  let r = g.g_rounds and now = Engine.now () and step = ref false in
  r.r_at <- max_int;
  for m = 0 to Array.length g.g_tokens - 1 do
    let j = stride * m in
    let ph = r.r_m.(j + m_phase) in
    if ph >= ph_backoff && ph <= ph_wait && r.r_m.(j + m_due) <= now then
      if ph = ph_backoff then retry g m
      else begin
        r.r_m.(j + m_phase) <-
          (if ph = ph_hedge then ph_hedge_due else ph_expired);
        step := true
      end
  done;
  if !step then next_step g;
  settle g

(* The first reply fills the member. A reply from an expired round is
   ignored, as a timed-out call's is. The member's other call still in
   flight, its hedge or the call the hedge raced, is dropped; when the
   hedge won, the call it beat is scored with the time it had taken (a
   censored sample), so a fail-slow peer that always loses the race
   still scores slow. *)
let group_reply_in g member token resp =
  let r = g.g_rounds and j = stride * member in
  if
    g.g_replies.(member) == no_reply
    && (r == once
       || (r.r_m.(j + m_phase) >= ph_hedge
          && r.r_m.(j + m_phase) <= ph_hedge_due))
  then begin
    g.g_replies.(member) <- Obj.repr resp;
    g.g_count <- g.g_count - need_one;
    if r != once then begin
      r.r_m.(j + m_phase) <- ph_done;
      let twin = twin r member in
      if twin <> no_call then begin
        r.r_hedges.(3 * member) <- no_call;
        if token = twin then begin
          (ctrs ()).c_hedges_won <- (ctrs ()).c_hedges_won + 1;
          drop_pending ~censored:true g.g_ep g.g_tokens.(member)
        end
        else drop_pending g.g_ep twin
      end
    end;
    if g.g_count >= need_one then (if r != once then arm r)
    else if r == once then group_stop g
    else next_step g
  end

(* ---------- the receive path ---------- *)

let ignore_reply ?size:_ _ = ()

(* The reply of a request that has no closure yet: its token says where
   the response goes. *)
let unbuilt ?size:_ _ = ()

(* The reply closure of a request, made when something outside the bare
   path needs one: a handler fiber or the ingress hook. *)
let reply_to t src token =
  if token = no_token then ignore_reply
  else begin
    let replied = ref false in
    fun ?(size = 64) resp ->
      if not !replied then begin
        replied := true;
        Fabric.send t.fabric ~src:t.node ~dst:src ~size (Response (token, resp))
      end
  end

let built t src token reply =
  if reply == unbuilt then reply_to t src token else reply

let r_idle = 0
let r_running = 1
let r_replied = 2

(* The bare path's reply: it answers the request the bare handler is
   running, at most once, and only while that handler runs. *)
let bare_reply s ?(size = 64) resp =
  let t = s.ep in
  if s.r_state = r_idle then
    invalid_arg "Rpc: a bare handler's reply called after the handler returned";
  if s.r_state = r_running then begin
    s.r_state <- r_replied;
    if s.r_token <> no_token then
      Fabric.send t.fabric ~src:t.node ~dst:s.r_src ~size
        (Response (s.r_token, resp))
  end

let start_handler s ~src req ~reply =
  let h = s.handler in
  Engine.start_now ~name:s.handler_name (fun () -> h ~src req ~reply)

(* Where a handler fiber would start: the bare path runs there as a bare
   callback when installed, and the handler starts on a fiber otherwise,
   or when the bare path declines. A fallback fiber gets a reply of its
   own, a no-op if the bare handler already answered. *)
let run_bare s ~src ~token ~reply req =
  let t = s.ep in
  match t.bare with
  | Some b when reply == unbuilt ->
    s.r_src <- src;
    s.r_token <- token;
    s.r_state <- r_running;
    let handled = b ~src req ~reply:s.bare_reply in
    let replied = s.r_state = r_replied in
    s.r_state <- r_idle;
    if not handled then
      start_handler s ~src req
        ~reply:(if replied then ignore_reply else reply_to t src token)
  | Some b when b ~src req ~reply -> ()
  | _ -> start_handler s ~src req ~reply:(built t src token reply)

let drain s =
  let src = s.b_src and token = s.b_token and req = Obj.obj s.b_req in
  let reply = s.b_reply in
  s.b_busy <- false;
  s.b_req <- unit_obj;
  s.b_reply <- unbuilt;
  run_bare s ~src ~token ~reply req

(* A request's service has ended: unless the endpoint crashed while the
   request was "on CPU", start its handler. Without a bare path that is
   a fiber start. With one it is a bare callback at the same point:
   [drain] for the [b_] fields, or, in the rare case they are taken (two
   services ending in one instant), a closure of its own, so each
   request stays tied to its own event under any tie order. [reply] is
   [unbuilt] unless the request came through {!serve}. *)
let start s ~src ~token ~reply req =
  let t = s.ep in
  if Fabric.is_alive t.node then
    match t.bare with
    | None ->
      let h = s.handler and reply = built t src token reply in
      Engine.spawn ~name:s.handler_name (fun () -> h ~src req ~reply)
    | Some _ when s.b_busy ->
      Engine.call_after 0 (fun () -> run_bare s ~src ~token ~reply req)
    | Some _ ->
      s.b_busy <- true;
      s.b_src <- src;
      s.b_token <- token;
      s.b_req <- Obj.repr req;
      s.b_reply <- reply;
      Engine.call_at_with (Engine.now ()) drain s

(* The in-service request's service time has ended. *)
let step s =
  let t = s.ep in
  let src = s.s_src and token = s.s_token and req = Obj.obj s.s_req in
  s.s_req <- unit_obj;
  start s ~src ~token ~reply:unbuilt req;
  Fabric.take_or_park t.node t.rx t.on_msg

(* The default service discipline, as an ingress scheduler's fiber runs
   it: charge the request's service time by blocking the calling fiber,
   then start the handler. *)
let serve t ~src req ~reply =
  match t.srv with
  | None -> ()
  | Some s ->
    let st = t.service_time req in
    if st > 0 then Engine.sleep st;
    start s ~src ~token:no_token ~reply req

(* Offer the request to the ingress hook, else serve it by the same
   discipline on the endpoint's own receive path: the service time is
   the one [step] event, and the endpoint takes no message until it
   fires, so the endpoint's "CPU" is a single queue. [false] when the
   request went into service. *)
let dispatch t s ~src ~token req =
  match t.ingress with
  | Some f when f ~src req ~reply:(reply_to t src token) -> true
  | _ ->
    let st = t.service_time req in
    if st <= 0 then begin
      start s ~src ~token ~reply:unbuilt req;
      true
    end
    else begin
      s.s_src <- src;
      s.s_token <- token;
      s.s_req <- Obj.repr req;
      Engine.call_at_with (Engine.now () + st) step s;
      false
    end

let complete t token resp =
  (* A token no longer pending answers a call that already timed out: it
     is ignored. *)
  if t.pn > 0 then begin
    let i = probe t token in
    if t.pk.(3 * i) = token then begin
      let sent = t.pk.((3 * i) + 1) and d = t.pk.((3 * i) + 2) in
      let v = t.pv.(i) in
      let mask = Array.length t.pv - 1 in
      let c = ctrs () in
      c.c_table_steps <-
        c.c_table_steps + 1
        + ((i - Int_table.home mask token) land mask)
        + remove_at t i;
      note_sample t (dst_of d) (Engine.now () - sent);
      let member = member_of d in
      if member = lone then ignore (Ivar.try_fill (Obj.obj v) resp : bool)
      else group_reply_in (Obj.obj v) member token resp
    end
  end

(* Handle one message; [false] when a request went into service, whose
   [step] then takes the endpoint's next message. *)
let handle t p =
  match Fabric.packet_msg p with
  | Response (token, resp) ->
    complete t token resp;
    true
  | Request (token, req) -> (
    match t.srv with
    | None -> true
    | Some s -> dispatch t s ~src:(Fabric.packet_src p) ~token req)
  | Oneway req -> (
    match t.srv with
    | None -> true
    | Some s -> dispatch t s ~src:(Fabric.packet_src p) ~token:no_token req)

(* The wake value of the event, scheduled when the endpoint is created,
   that begins its first receive. *)
let start_rx = Obj.repr (ref ())

(* Handling a message runs on no fiber, so a failure in it is tagged
   here with the endpoint's receive name, "<node>.demux", as a fiber's
   failure is tagged with the fiber's name. *)
let receive t v =
  if
    Obj.repr v == start_rx
    ||
    match handle t v with
    | more -> more
    | exception (Engine.Fiber_failure _ as e) -> raise e
    | exception e ->
      raise (Engine.Fiber_failure (Fabric.name t.node ^ ".demux", e))
  then Fabric.take_or_park t.node t.rx t.on_msg

(* Stands in for an endpoint's waker until [endpoint] has made the
   endpoint the waker's callback needs. A waker's type parameter only
   records what [wake] must be given, so one placeholder serves every
   endpoint type. *)
let no_rx : Obj.t Engine.waker = Engine.callback_waker ignore

let endpoint fabric node =
  let rec t =
    {
      fabric;
      node;
      pk = [||];
      pv = [||];
      pn = 0;
      peer_ids = [||];
      peer_fs = [||];
      npeers = 0;
      next_token = 0;
      srv = None;
      bare = None;
      service_time = (fun _ -> 0);
      ingress = None;
      rx = Obj.magic no_rx;
      on_msg = (fun v -> receive t v);
    }
  in
  t.rx <- Engine.callback_waker t.on_msg;
  ignore (Engine.wake t.rx (Obj.obj start_rx) : bool);
  t

let set_handler t h =
  match t.srv with
  | Some s -> s.handler <- h
  | None ->
    let rec s =
      {
        ep = t;
        handler = h;
        handler_name = Fabric.name t.node ^ ".handler";
        s_src = 0;
        s_token = no_token;
        s_req = unit_obj;
        b_busy = false;
        b_src = 0;
        b_token = no_token;
        b_req = unit_obj;
        b_reply = unbuilt;
        r_src = 0;
        r_token = no_token;
        r_state = r_idle;
        bare_reply = (fun ?size resp -> bare_reply s ?size resp);
      }
    in
    t.srv <- Some s

let set_bare_handler t b = t.bare <- Some b

let set_service_time t f = t.service_time <- f

let set_ingress t f = t.ingress <- Some f

let service_time_of t req = t.service_time req

let call t ~dst ?(size = 64) req =
  let iv = Ivar.create () in
  ignore (send_call t ~dst ~size lone (Obj.repr iv) req : int);
  Ivar.read iv

(* On expiry the pending entry is dropped so a storm of timed-out calls
   cannot grow the token table (a late response then finds no entry and
   is ignored, and contributes no latency sample). *)
let call_timeout t ~dst ?(size = 64) ~timeout req =
  let iv = Ivar.create () in
  let token = send_call t ~dst ~size lone (Obj.repr iv) req in
  match Ivar.read_timeout iv ~timeout with
  | Some _ as r -> r
  | None ->
    drop_pending t token;
    (ctrs ()).c_timeouts <- (ctrs ()).c_timeouts + 1;
    None

let pending_calls t = t.pn

let table_steps () = (ctrs ()).c_table_steps

let group ?need ?tries ?round ?(backoff = 0) t n =
  if n < 0 || n >= need_one - 1 then invalid_arg "Rpc.group: size out of range";
  let need = Option.value need ~default:n in
  if need < 0 || need > n || (need < n && round <> None) then
    invalid_arg "Rpc.group: bad need";
  let r =
    match round with
    | None -> once
    | Some len ->
      { once with r_tries = Option.value tries ~default:1; r_length = len;
        r_backoff = backoff; r_calls = Array.make n unit_obj;
        r_m = Array.make (stride * n) 0 }
  in
  let g =
    { g_ep = t; g_replies = Array.make n no_reply;
      g_tokens = Array.make n no_call; g_count = need * need_one;
      g_waiter = unit_obj; g_rounds = r }
  in
  if r != once then r.r_fire <- (fun () -> round_fire g);
  g

let group_call g ~dst ?(size = 64) ?hedge req =
  let m = called g and r = g.g_rounds in
  if m >= Array.length g.g_tokens then invalid_arg "Rpc.group_call: group full";
  g.g_count <- g.g_count + 1;
  if r == once then begin
    if hedge <> None then invalid_arg "Rpc.group_call: a hedge needs rounds";
    g.g_tokens.(m) <- send_call g.g_ep ~dst ~size m (Obj.repr g) req
  end
  else begin
    r.r_calls.(m) <- Obj.repr req;
    r.r_m.((stride * m) + m_dst) <- dst;
    r.r_m.((stride * m) + m_size) <- size;
    (match hedge with
    | Some (d2, after) ->
      (* [-1]: no token, no destination. *)
      if Array.length r.r_hedges = 0 then
        r.r_hedges <- Array.make (3 * Array.length r.r_calls) (-1);
      r.r_hedges.((3 * m) + 1) <- d2;
      r.r_hedges.((3 * m) + 2) <- after
    | None -> ());
    if m = 0 then next_step g
  end

let fan_out ?need ?tries ?round ?backoff t dsts ?size req =
  let g = group ?need ?tries ?round ?backoff t (List.length dsts) in
  List.iter (fun dst -> group_call g ~dst ?size req) dsts;
  g

(* One suspension and one deadline for the whole group. On expiry every
   member still unanswered is dropped from the pending table, as
   {!call_timeout} does for a lone call, so a fan-out to a crashed
   replica leaves no entry behind. *)
let group_await g ~timeout =
  if called g < Array.length g.g_tokens || g.g_rounds != once then
    invalid_arg "Rpc.group_await: members left uncalled, or rounds";
  g.g_count < need_one
  || (timeout > 0
     && Engine.suspend (fun w ->
            g.g_waiter <- Obj.repr w;
            Engine.arm_timeout w timeout false))
  || begin
       g.g_waiter <- unit_obj;
       group_stop g;
       false
     end

let group_join g =
  if called g < Array.length g.g_tokens then
    invalid_arg "Rpc.group_join: members left uncalled";
  (g.g_count < need_one
  || Engine.suspend (fun w -> g.g_waiter <- Obj.repr w))
  && g.g_rounds.r_failed = 0

let group_reply g m =
  let r = g.g_replies.(m) in
  if r == no_reply then None else Some (Obj.obj r)

let group_for_all g p =
  let rec go m =
    m >= Array.length g.g_replies
    || (let r = g.g_replies.(m) in
        (r == no_reply || p (Obj.obj r)) && go (m + 1))
  in
  g.g_count < need_one && g.g_rounds.r_failed = 0 && go 0

let send_oneway t ~dst ?(size = 64) req =
  Fabric.send t.fabric ~src:t.node ~dst ~size (Oneway req)
