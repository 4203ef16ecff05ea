(* A fixed-size domain pool tuned for this repo's shape of work: a
   handful of long batches (sweeps) of independent, coarse cells — not
   millions of fine-grained tasks.  So the scheduler is deliberately
   simple: a queue of batches, each batch an array of cells claimed in
   chunks through an atomic cursor.  The submitting domain claims
   cells from its own batch too, which (a) uses all [jobs] domains and
   (b) makes nested [map] calls deadlock-free: a worker that submits a
   sub-batch drives that sub-batch itself, so progress never depends on
   another domain being free.

   Determinism: results land in a per-batch array at their input index,
   so the merged list is in canonical input order no matter which
   domain ran which cell or when.  Exceptions are captured per cell and
   the earliest failing input re-raised, so even the failure mode is
   schedule-independent.

   Two scaling hazards shaped the claiming scheme (DESIGN §6): OCaml 5
   minor collections are a stop-the-world rendezvous of *every* domain,
   so each worker sizes its own minor heap up on entry (the default
   256k-word arena turns an allocation-heavy sweep into a GC-barrier
   convoy — measured 0.31x at jobs=8 before, on one core); and the two
   per-batch atomics are padded apart so cursor claims and completion
   counts do not bounce one cache line between domains. *)

(* One submitted [map]: claim a run of indices with [next], run them,
   count completions with [left].  The batch stays on the pool queue
   until every index is claimed; completion is signalled to the
   submitter through its own condition so unrelated batches don't wake
   it. *)
type batch = {
  run : int -> unit;  (* never raises; stores result or exception *)
  size : int;
  chunk : int;  (* indices claimed per [next] bump, >= 1 *)
  next : int Atomic.t;
  pad : int array;
      (* Dead weight between [next] and [left]: keeps the two hottest
         atomics on different cache lines (OCaml 5.1 has no padded
         atomics).  Held in the record so the GC cannot collect the
         separation away. *)
  left : int Atomic.t;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
}

type t = {
  jobs : int;
  lock : Mutex.t;  (* guards [queue], [state] *)
  work : Condition.t;
  queue : batch Queue.t;
  mutable state : [ `Running | `Stopped ];
  mutable domains : unit Domain.t list;
}

let warn_invalid_jobs s fallback =
  Printf.eprintf
    "ksurf: ignoring invalid KSURF_JOBS=%S (expected a positive integer); \
     using %d\n\
     %!"
    s fallback

let default_jobs () =
  let fallback = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "KSURF_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | Some _ | None ->
          (* An empty string is how callers unset the variable (putenv
             cannot remove); only warn about genuinely malformed
             values, and still fall back so a typo degrades to the
             machine default instead of killing the run. *)
          if String.trim s <> "" then warn_invalid_jobs s fallback;
          fallback)
  | None -> fallback

(* The one precedence rule for worker counts, shared by every binary:
   an explicit CLI flag always beats the environment, which beats the
   machine-derived default. *)
let resolve_jobs ?cli () =
  match cli with Some n -> max 1 n | None -> default_jobs ()

let jobs t = t.jobs

(* --- Minor-heap sizing ---------------------------------------------- *)

(* OCaml 5 minor collections stop the world: every domain must reach a
   safepoint before any can collect, and on an oversubscribed or busy
   machine that rendezvous costs scheduling quanta, not microseconds.
   The default 256k-word arena makes an allocation-heavy simulation hit
   that barrier thousands of times per second, which is the measured
   anti-scaling of BENCH_kpar.json (0.31x at jobs=8).  Sizing the arena
   up ~32x makes collections correspondingly rarer.

   The size is per domain and does *not* propagate to spawned domains,
   so [create] applies it to the submitting domain and every worker
   applies it to itself on entry.  Users stay in charge: an explicit
   s=<n> in OCAMLRUNPARAM wins, and we only ever grow the arena, never
   shrink it. *)
let default_minor_words = 8 * 1024 * 1024 (* words: 64 MB per domain on 64-bit *)

let user_sized_minor_heap () =
  match Sys.getenv_opt "OCAMLRUNPARAM" with
  | None -> false
  | Some p ->
      String.split_on_char ',' p
      |> List.exists (fun kv ->
             String.length kv >= 2 && kv.[0] = 's' && kv.[1] = '=')

let tune_minor_heap () =
  if not (user_sized_minor_heap ()) then begin
    let g = Gc.get () in
    if g.Gc.minor_heap_size < default_minor_words then
      Gc.set { g with Gc.minor_heap_size = default_minor_words }
  end

(* Claim-and-run until the batch has no unclaimed cells.  Runs on
   workers and on the submitting domain alike.  Claims advance the
   cursor by [chunk] indices at a time: for the typical sweep (tens of
   coarse cells) the chunk is 1 and claiming is exactly per-cell, while
   many-small-cell batches amortise the shared-cursor traffic across a
   run of cells. *)
let drain (b : batch) =
  let rec loop () =
    let base = Atomic.fetch_and_add b.next b.chunk in
    if base < b.size then begin
      let stop = min b.size (base + b.chunk) in
      for i = base to stop - 1 do
        b.run i
      done;
      let claimed = stop - base in
      if Atomic.fetch_and_add b.left (-claimed) = claimed then begin
        (* Last cell: wake the submitter — the only waiter on this
           condition, so [signal] suffices (it re-checks [left] under
           the mutex, so the wakeup cannot be lost). *)
        Mutex.lock b.done_mutex;
        Condition.signal b.done_cond;
        Mutex.unlock b.done_mutex
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop t =
  Mutex.lock t.lock;
  let rec find () =
    if t.state = `Stopped then None
    else
      match Queue.peek_opt t.queue with
      | Some b when Atomic.get b.next < b.size -> Some b
      | Some _ ->
          (* Fully claimed (possibly still finishing elsewhere): done
             with it here. *)
          ignore (Queue.pop t.queue);
          find ()
      | None ->
          Condition.wait t.work t.lock;
          find ()
  in
  match find () with
  | None -> Mutex.unlock t.lock
  | Some b ->
      Mutex.unlock t.lock;
      drain b;
      worker_loop t

let create ?jobs () =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  tune_minor_heap ();
  let t =
    {
      jobs;
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      state = `Running;
      domains = [];
    }
  in
  if jobs > 1 then
    t.domains <-
      List.init (jobs - 1) (fun _ ->
          Domain.spawn (fun () ->
              (* Per-domain setting: workers must size their own arena
                 (the submitter's [tune_minor_heap] above does not reach
                 them). *)
              tune_minor_heap ();
              worker_loop t));
  t

let shutdown t =
  Mutex.lock t.lock;
  let was = t.state in
  t.state <- `Stopped;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  if was = `Running then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* How many cells one [next] bump claims.  Coarse sweeps (every study:
   tens of cells, seconds each) want chunk 1 — anything larger idles
   domains at the tail.  Fine-grained batches (hundreds+ of cells) want
   runs long enough that the shared cursor stops being a per-cell
   synchronisation point, while still leaving every domain several
   claims for load balance. *)
let chunk_for ~jobs ~size =
  if size <= jobs * 16 then 1 else max 1 (size / (jobs * 16))

let map ~pool f cells =
  let stopped () = invalid_arg "Pool.map: pool is shut down" in
  (* The state read is racy without the lock — a concurrent [shutdown]
     could flip it between our check and the enqueue.  All paths check
     under [pool.lock]; the batch path folds the check into the same
     critical section that publishes the batch, so a map that gets past
     it has its batch visible to [shutdown]'s final broadcast. *)
  let check_running_locked () =
    Mutex.lock pool.lock;
    let running = pool.state = `Running in
    Mutex.unlock pool.lock;
    if not running then stopped ()
  in
  match cells with
  | [] ->
      check_running_locked ();
      []
  | [ x ] ->
      check_running_locked ();
      [ f x ]
  | cells when pool.jobs <= 1 ->
      check_running_locked ();
      List.map f cells
  | cells ->
      let arr = Array.of_list cells in
      let n = Array.length arr in
      let results = Array.make n None in
      let run i =
        results.(i) <-
          (match f arr.(i) with
          | v -> Some (Ok v)
          | exception e -> Some (Error (e, Printexc.get_raw_backtrace ())))
      in
      let chunk = chunk_for ~jobs:pool.jobs ~size:n in
      (* Explicit lets: record-field expressions evaluate in
         unspecified order, but the pad array only separates the
         atomics if it is allocated *between* them. *)
      let next = Atomic.make 0 in
      let pad = Array.make 15 0 in
      let left = Atomic.make n in
      let b =
        {
          run;
          size = n;
          chunk;
          next;
          pad;
          left;
          done_mutex = Mutex.create ();
          done_cond = Condition.create ();
        }
      in
      ignore (Sys.opaque_identity b.pad);
      Mutex.lock pool.lock;
      if pool.state <> `Running then begin
        Mutex.unlock pool.lock;
        stopped ()
      end;
      Queue.push b pool.queue;
      (* Wake only as many workers as the batch can occupy: the
         submitter takes one chunk itself, so a batch of [c] chunks
         needs at most [c - 1] helpers.  Waking all [jobs - 1] workers
         for a two-cell batch is the broadcast thundering herd the
         sweep profile showed; a missed signal is harmless because
         busy workers re-scan the queue before waiting and the
         submitter drains its own batch regardless. *)
      let chunks = (n + chunk - 1) / chunk in
      if chunks - 1 >= pool.jobs - 1 then Condition.broadcast pool.work
      else
        for _ = 1 to chunks - 1 do
          Condition.signal pool.work
        done;
      Mutex.unlock pool.lock;
      (* The submitter works its own batch, then waits for cells other
         domains claimed. *)
      drain b;
      Mutex.lock b.done_mutex;
      while Atomic.get b.left > 0 do
        Condition.wait b.done_cond b.done_mutex
      done;
      Mutex.unlock b.done_mutex;
      (* Every slot is filled; surface the earliest failure, else merge
         in input order. *)
      Array.iter
        (function
          | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
          | Some (Ok _) | None -> ())
        results;
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error _) | None -> assert false)
           results)
