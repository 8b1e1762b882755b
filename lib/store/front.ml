(* A disk put is a handful of filesystem syscalls — one to two orders of
   magnitude slower than everything else on the serving path.  Writes
   therefore go write-behind: [put] stores into the in-memory LRU
   synchronously (reads are immediately coherent) and enqueues the disk
   write for a single background writer thread.  Losing queued writes on
   a crash just re-runs those analyses later — this is a cache — and
   [flush] drains the queue for orderly shutdown.  The queue is bounded;
   overflow drops the disk write (counted, never blocks the server). *)

type writer = {
  disk : Disk.t;
  queue : (string * string) Queue.t;
  wlock : Mutex.t;
  nonempty : Condition.t;
  drained : Condition.t;
  mutable stopping : bool;
  mutable in_flight : bool;  (* a popped write not yet on disk *)
  mutable dropped : int;
  thread : Thread.t option ref;
}

let max_pending = 1024

type t = { lru : (string, Entry.t) Engine.Lru.t; writer : writer option }
type level = Memory | Disk

let writer_loop w =
  let rec loop () =
    Mutex.lock w.wlock;
    while Queue.is_empty w.queue && not w.stopping do
      Condition.wait w.nonempty w.wlock
    done;
    if Queue.is_empty w.queue then begin
      (* stopping and fully drained *)
      Condition.broadcast w.drained;
      Mutex.unlock w.wlock
    end
    else begin
      let key, blob = Queue.pop w.queue in
      w.in_flight <- true;
      Mutex.unlock w.wlock;
      (try Disk.put w.disk key blob
       with Invalid_argument _ -> () (* malformed key: drop, never die *));
      Mutex.lock w.wlock;
      w.in_flight <- false;
      if Queue.is_empty w.queue then Condition.broadcast w.drained;
      Mutex.unlock w.wlock;
      loop ()
    end
  in
  loop ()

let create ?(mem_capacity = 512) ?disk () =
  let writer =
    Option.map
      (fun disk ->
        let w =
          {
            disk;
            queue = Queue.create ();
            wlock = Mutex.create ();
            nonempty = Condition.create ();
            drained = Condition.create ();
            stopping = false;
            in_flight = false;
            dropped = 0;
            thread = ref None;
          }
        in
        w.thread := Some (Thread.create writer_loop w);
        w)
      disk
  in
  { lru = Engine.Lru.create ~capacity:mem_capacity (); writer }

let disk t = Option.map (fun w -> w.disk) t.writer

let enqueue_write t key blob =
  Option.iter
    (fun w ->
      Mutex.lock w.wlock;
      if w.stopping || Queue.length w.queue >= max_pending then begin
        w.dropped <- w.dropped + 1;
        Mutex.unlock w.wlock;
        Obs.add "store.write_dropped" 1
      end
      else begin
        Queue.push (key, blob) w.queue;
        Condition.signal w.nonempty;
        Mutex.unlock w.wlock
      end)
    t.writer

let find t key =
  match Engine.Lru.find t.lru key with
  | Some e -> Some (Memory, e)
  | None -> (
      match Option.bind t.writer (fun w -> Disk.find w.disk key) with
      | None -> None
      | Some blob -> (
          match Entry.decode blob with
          | Some e ->
              Engine.Lru.put t.lru key e;
              Some (Disk, e)
          | None -> None))

let put t key e =
  Engine.Lru.put t.lru key e;
  if t.writer <> None then enqueue_write t key (Entry.encode e)

let mem_stats t = Engine.Lru.stats t.lru
let disk_stats t = Option.map (fun w -> Disk.stats w.disk) t.writer

let write_dropped t =
  match t.writer with
  | None -> 0
  | Some w ->
      Mutex.lock w.wlock;
      let d = w.dropped in
      Mutex.unlock w.wlock;
      d

let flush t =
  Option.iter
    (fun w ->
      Mutex.lock w.wlock;
      while (not (Queue.is_empty w.queue)) || w.in_flight do
        Condition.wait w.drained w.wlock
      done;
      Mutex.unlock w.wlock;
      Disk.flush w.disk)
    t.writer

let close t =
  Option.iter
    (fun w ->
      flush t;
      Mutex.lock w.wlock;
      w.stopping <- true;
      Condition.broadcast w.nonempty;
      Mutex.unlock w.wlock;
      (match !(w.thread) with Some th -> Thread.join th | None -> ());
      w.thread := None)
    t.writer
