type ctx = { start_ns : int64; deadline_ns : int64 option }

exception Timeout

let check ctx =
  match ctx.deadline_ns with
  | Some d when Int64.compare (Monotonic_clock.now ()) d > 0 -> raise Timeout
  | Some _ | None -> ()

let elapsed_ns ctx = Int64.sub (Monotonic_clock.now ()) ctx.start_ns

type 'a job = { label : string; work : ctx -> 'a }

let job ?(label = "job") work = { label; work }

type 'a outcome =
  | Done of 'a
  | Failed of { label : string; error : string }
  | Timed_out of { label : string; after_ns : int64 }

(* Bounded FIFO of job indices: producers block while full, consumers
   block while empty, [close] wakes everyone up for shutdown. *)
module Bqueue = struct
  type t = {
    lock : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    buf : int array;
    mutable rd : int;
    mutable wr : int;
    mutable len : int;
    mutable closed : bool;
  }

  let create capacity =
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      buf = Array.make capacity 0;
      rd = 0;
      wr = 0;
      len = 0;
      closed = false;
    }

  let push q x =
    Mutex.lock q.lock;
    while q.len = Array.length q.buf && not q.closed do
      Condition.wait q.not_full q.lock
    done;
    if q.closed then begin
      Mutex.unlock q.lock;
      invalid_arg "Bqueue.push: closed"
    end;
    q.buf.(q.wr) <- x;
    q.wr <- (q.wr + 1) mod Array.length q.buf;
    q.len <- q.len + 1;
    Condition.signal q.not_empty;
    Mutex.unlock q.lock

  let pop q =
    Mutex.lock q.lock;
    while q.len = 0 && not q.closed do
      Condition.wait q.not_empty q.lock
    done;
    let x =
      if q.len = 0 then None
      else begin
        let v = q.buf.(q.rd) in
        q.rd <- (q.rd + 1) mod Array.length q.buf;
        q.len <- q.len - 1;
        Condition.signal q.not_full;
        Some v
      end
    in
    Mutex.unlock q.lock;
    x

  let close q =
    Mutex.lock q.lock;
    q.closed <- true;
    Condition.broadcast q.not_empty;
    Condition.broadcast q.not_full;
    Mutex.unlock q.lock
end

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

(* Tracing state of one pool run.  Job tracks are registered up front in
   job order, so their tids — and therefore the merged export — do not
   depend on which worker ends up executing which job; each worker gets
   its own track for the queue-wait/run breakdown. *)
type trace = {
  obs : Obs.Sink.t;
  job_tracks : Obs.Sink.track array;
  enqueued_ns : int64 array;  (* when the job became runnable *)
}

let make_trace jobs =
  match Obs.sink () with
  | None -> None
  | Some obs ->
      Some
        {
          obs;
          job_tracks =
            Array.map
              (fun j -> Obs.Sink.new_track obs ("job:" ^ j.label))
              jobs;
          enqueued_ns = Array.make (Array.length jobs) 0L;
        }

let run ?workers ?timeout_ns jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  let results = Array.make n None in
  let trace = make_trace jobs in
  let worker_track =
    match trace with
    | None -> fun _ -> None
    | Some tr ->
        (* One track per worker, created lazily by worker index so a
           sequential run registers exactly one. *)
        let tracks = Array.make (max 1 workers) None in
        fun w ->
          (match tracks.(w) with
          | Some _ -> ()
          | None ->
              tracks.(w) <-
                Some (Obs.Sink.new_track tr.obs (Printf.sprintf "worker %d" w)));
          tracks.(w)
  in
  let exec ~worker i =
    let j = jobs.(i) in
    let start = Monotonic_clock.now () in
    let ctx =
      { start_ns = start; deadline_ns = Option.map (Int64.add start) timeout_ns }
    in
    let body () =
      let outcome =
        match j.work ctx with
        | v -> Done v
        | exception Timeout ->
            Timed_out { label = j.label; after_ns = elapsed_ns ctx }
        | exception e ->
            Failed { label = j.label; error = Printexc.to_string e }
      in
      results.(i) <- Some outcome
    in
    match trace with
    | None -> body ()
    | Some tr ->
        let t0 = Obs.Sink.now tr.obs in
        let queue_ns = Int64.to_int (Int64.sub t0 tr.enqueued_ns.(i)) in
        let m = Obs.Sink.metrics tr.obs in
        Obs.Metrics.observe m "pool.queue_wait_ns" queue_ns;
        (match worker_track worker with
        | None -> ()
        | Some wt ->
            Obs.Sink.begin_at wt ~ts:t0 ~cat:"pool"
              ~args:
                [
                  ("job", Obs.Event.Str j.label);
                  ("index", Obs.Event.Int i);
                  ("queue_ns", Obs.Event.Int queue_ns);
                ]
              ("run:" ^ j.label));
        Fun.protect
          ~finally:(fun () ->
            let t1 = Obs.Sink.now tr.obs in
            Obs.Metrics.observe m "pool.run_ns"
              (Int64.to_int (Int64.sub t1 t0));
            Obs.Metrics.add m "pool.jobs" 1;
            match worker_track worker with
            | None -> ()
            | Some wt -> Obs.Sink.end_at wt ~ts:t1)
          (fun () -> Obs.with_track tr.obs tr.job_tracks.(i) body)
  in
  let mark_enqueued i =
    match trace with
    | None -> ()
    | Some tr -> tr.enqueued_ns.(i) <- Obs.Sink.now tr.obs
  in
  if workers <= 1 || n <= 1 then begin
    for i = 0 to n - 1 do
      mark_enqueued i
    done;
    for i = 0 to n - 1 do
      exec ~worker:0 i
    done
  end
  else begin
    let q = Bqueue.create (2 * workers) in
    let worker w () =
      let rec loop () =
        match Bqueue.pop q with
        | Some i ->
            exec ~worker:w i;
            loop ()
        | None -> ()
      in
      loop ()
    in
    let domains =
      Array.init (min workers n) (fun w -> Domain.spawn (worker w))
    in
    for i = 0 to n - 1 do
      mark_enqueued i;
      Bqueue.push q i
    done;
    Bqueue.close q;
    Array.iter Domain.join domains
  end;
  Array.to_list
    (Array.map (function Some o -> o | None -> assert false) results)

let map ?workers ?timeout_ns f xs =
  run ?workers ?timeout_ns (List.map (fun x -> job (fun _ -> f x)) xs)
