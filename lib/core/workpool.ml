(* The job pool that splits one depth-first path tree across the DFS
   workers of a parallel search. Jobs sit on a stack behind one mutex;
   the counters a busy worker polls on its hot path ([idle], [queued])
   and the two latches ([lost], [terminated]) are atomics, so deciding
   whether to donate costs two atomic reads and no lock. Every
   transition that can end a wait (a push, a departure, a latch)
   happens under the mutex and signals the condition, so a waiter that
   checked under the same mutex never misses its wake-up. *)

type 'a t = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable jobs : 'a list; (* guarded by [lock] *)
  mutable members : int; (* guarded by [lock] *)
  queued : int Atomic.t; (* [List.length jobs], readable without the lock *)
  idle : int Atomic.t; (* members inside [await] *)
  lost : bool Atomic.t;
  terminated : bool Atomic.t;
}

type 'a wait =
  | Job of 'a
  | Terminated
  | Lost
  | Stopped

let create ~members =
  { lock = Mutex.create ();
    wake = Condition.create ();
    jobs = [];
    members;
    queued = Atomic.make 0;
    idle = Atomic.make 0;
    lost = Atomic.make false;
    terminated = Atomic.make false }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | r ->
    Mutex.unlock t.lock;
    r
  | exception e ->
    Mutex.unlock t.lock;
    raise e

(* Under [lock]: every member idle and nothing queued means no member
   can ever produce work again. *)
let check_terminated t =
  if t.jobs = [] && Atomic.get t.idle >= t.members then begin
    Atomic.set t.terminated true;
    Condition.broadcast t.wake
  end

let push_locked t job =
  t.jobs <- job :: t.jobs;
  Atomic.incr t.queued

let hungry t = Atomic.get t.idle > Atomic.get t.queued

let donate t job =
  locked t (fun () ->
      push_locked t job;
      Condition.signal t.wake)

let lose t =
  if not (Atomic.get t.lost) then begin
    Atomic.set t.lost true;
    locked t (fun () -> Condition.broadcast t.wake)
  end

let join t = locked t (fun () -> t.members <- t.members + 1)

let leave t =
  Atomic.set t.lost true;
  locked t (fun () ->
      t.members <- t.members - 1;
      Condition.broadcast t.wake)

let abandon t jobs =
  locked t (fun () ->
      List.iter (push_locked t) jobs;
      t.members <- t.members - 1;
      check_terminated t;
      Condition.broadcast t.wake)

(* Spin iterations before blocking: long enough to span a busy peer's
   next run boundary on short-run workloads, so a donation is usually
   picked up without a sleep/wake round trip. *)
let spin_limit = 512

let await t ~poll =
  locked t (fun () ->
      Atomic.incr t.idle;
      check_terminated t);
  let leave_idle () = Atomic.decr t.idle in
  (* Under [lock]: the outcome that ends the wait, if any. A member
     that received [Terminated] stays counted idle: the pool is over. *)
  let ready () =
    match t.jobs with
    | job :: rest ->
      t.jobs <- rest;
      Atomic.decr t.queued;
      leave_idle ();
      Some (Job job)
    | [] ->
      if Atomic.get t.lost then begin
        leave_idle ();
        Some Lost
      end
      else if Atomic.get t.terminated then Some Terminated
      else None
  in
  (* [poll] runs outside the lock: it may raise (an injected worker
     crash), and the raising member must not stay counted idle. A stop
     observed after termination is moot: the tree was walked. *)
  let stopped () =
    if Atomic.get t.terminated then Terminated
    else begin
      leave_idle ();
      Stopped
    end
  in
  let keep_waiting () =
    match poll () with
    | ok -> ok
    | exception e ->
      leave_idle ();
      raise e
  in
  (* A job or a loss ends the spin at once; termination is acted on
     only after it. Every wait that is not handed work thus polls
     [spin_limit] times, whichever member went idle last, so the
     number of polls a member makes (which fault injection counts)
     does not hinge on that race. *)
  let rec go spins =
    match
      if Atomic.get t.queued > 0 || Atomic.get t.lost then locked t ready else None
    with
    | Some r -> r
    | None ->
      if not (keep_waiting ()) then stopped ()
      else if spins > 0 then begin
        Domain.cpu_relax ();
        go (spins - 1)
      end
      else
        match
          locked t (fun () ->
              match ready () with
              | Some _ as r -> r
              | None ->
                Condition.wait t.wake t.lock;
                ready ())
        with
        | Some r -> r
        | None -> go 0
  in
  go spin_limit

let stranded t = Atomic.get t.queued > 0
