type t = {
  mu : Mutex.t;
  work_ready : Condition.t;  (* signalled when a task is queued or on shutdown *)
  task_done : Condition.t;  (* signalled when any promise completes *)
  tasks : (unit -> unit) Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

type 'a outcome = Value of 'a | Raised of exn * Printexc.raw_backtrace

type 'a promise = { owner : t; mutable result : 'a outcome option }

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let effective_jobs jobs = min jobs (max 1 (Domain.recommended_domain_count ()))

let rec worker_loop t =
  Mutex.lock t.mu;
  while Queue.is_empty t.tasks && not t.stopped do
    Condition.wait t.work_ready t.mu
  done;
  if Queue.is_empty t.tasks then Mutex.unlock t.mu (* stopped: exit *)
  else begin
    let task = Queue.pop t.tasks in
    Mutex.unlock t.mu;
    task ();
    worker_loop t
  end

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  (* Never spawn more domains than the runtime recommends for this
     machine: every live domain joins each stop-the-world minor
     collection, so oversubscribing cores turns the GC into a
     rendezvous tax without adding any parallelism.  Results are
     independent of worker count, so capping only changes speed. *)
  let jobs = effective_jobs jobs in
  let t =
    {
      mu = Mutex.create ();
      work_ready = Condition.create ();
      task_done = Condition.create ();
      tasks = Queue.create ();
      stopped = false;
      workers = [];
      jobs;
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let submit t f =
  let p = { owner = t; result = None } in
  let task () =
    let r =
      try Value (f ()) with e -> Raised (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock t.mu;
    p.result <- Some r;
    Condition.broadcast t.task_done;
    Mutex.unlock t.mu
  in
  Mutex.lock t.mu;
  if t.stopped then begin
    Mutex.unlock t.mu;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task t.tasks;
  Condition.signal t.work_ready;
  Mutex.unlock t.mu;
  p

let await p =
  let t = p.owner in
  Mutex.lock t.mu;
  while Option.is_none p.result do
    Condition.wait t.task_done t.mu
  done;
  let r = Option.get p.result in
  Mutex.unlock t.mu;
  match r with
  | Value v -> v
  | Raised (e, bt) -> Printexc.raise_with_backtrace e bt

let map t f xs = List.map await (List.map (fun x -> submit t (fun () -> f x)) xs)

let shutdown t =
  Mutex.lock t.mu;
  if t.stopped then Mutex.unlock t.mu
  else begin
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    let workers = t.workers in
    t.workers <- [];
    Mutex.unlock t.mu;
    List.iter Domain.join workers
  end

let run ?jobs f xs =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> map t f xs)
