(* Parallel-array layout: one unboxed float array for times, int
   arrays for sequence numbers and pids, and one payload array — no
   per-entry record.  A [push]/[drop] pair therefore allocates nothing
   (the old boxed { time; seq; payload } entry was ~6 words per event,
   the single largest allocation on the engine hot path), and the
   accessor API ([top_time]/[top_pid]/[top]/[drop]) lets the engine run
   loop inspect and consume the minimum without materialising a
   [Some (time, payload)] tuple. *)

type 'a t = {
  mutable times : float array;  (* unboxed float array *)
  mutable seqs : int array;
  mutable pids : int array;
  mutable data : 'a array;
  mutable len : int;
}

let create () =
  { times = [||]; seqs = [||]; pids = [||]; data = [||]; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

(* (time, seq) lexicographic: same-time events fire in insertion
   order, which keeps whole-simulation execution deterministic. *)
let before t i j =
  t.times.(i) < t.times.(j)
  || (t.times.(i) = t.times.(j) && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let tm = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tm;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let p = t.pids.(i) in
  t.pids.(i) <- t.pids.(j);
  t.pids.(j) <- p;
  let d = t.data.(i) in
  t.data.(i) <- t.data.(j);
  t.data.(j) <- d

let grow t payload =
  let cap = Array.length t.times in
  if t.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ntimes = Array.make ncap 0.0 in
    Array.blit t.times 0 ntimes 0 t.len;
    t.times <- ntimes;
    let nseqs = Array.make ncap 0 in
    Array.blit t.seqs 0 nseqs 0 t.len;
    t.seqs <- nseqs;
    let npids = Array.make ncap 0 in
    Array.blit t.pids 0 npids 0 t.len;
    t.pids <- npids;
    (* The payload being pushed doubles as the filler for fresh slots;
       the heap never reads a slot beyond [len]. *)
    let ndata = Array.make ncap payload in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

(* Store the new entry at the end and sift it up.  Inlined into both
   pushes, so the time read from a cell stays unboxed. *)
let[@inline] insert t time ~seq ~pid payload =
  grow t payload;
  let i = ref t.len in
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.pids.(!i) <- pid;
  t.data.(!i) <- payload;
  t.len <- t.len + 1;
  (* Sift up. *)
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    before t !i parent
  do
    let parent = (!i - 1) / 2 in
    swap t !i parent;
    i := parent
  done

let push t ~time ~seq ~pid payload = insert t time ~seq ~pid payload
let push_cell t cell ~seq ~pid payload = insert t cell.(0) ~seq ~pid payload

let top_time t = t.times.(0)
let top_time_into t cell = cell.(0) <- t.times.(0)
let top_pid t = t.pids.(0)
let top t = t.data.(0)

let drop t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.times.(0) <- t.times.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.pids.(0) <- t.pids.(t.len);
    t.data.(0) <- t.data.(t.len);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < t.len && before t l !smallest then smallest := l;
      if r < t.len && before t r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap t !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end;
  (* Release the payload reference so popped events do not linger past
     their execution (the engine holds the returned payload itself). *)
  if t.len < Array.length t.data then t.data.(t.len) <- t.data.(0)

(* Whether [a]'s earliest event fires before [b]'s, by (time, seq); an
   empty heap never fires first.  A bool, so comparing two heaps boxes
   neither top time. *)
let top_before a b =
  a.len > 0
  && (b.len = 0
     || a.times.(0) < b.times.(0)
     || (a.times.(0) = b.times.(0) && a.seqs.(0) < b.seqs.(0)))

(* Whether every event fires after the time in [cell.(0)]: the heap is
   empty or its earliest time is later.  Reads the time in place, so
   asking boxes nothing. *)
let fires_after t cell = t.len = 0 || t.times.(0) > cell.(0)
