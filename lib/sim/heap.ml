(* Layout: the keys live in heap order in three parallel arrays, one
   unboxed float array of times and int arrays of sequence numbers and
   slots.  A slot indexes the slot table, which holds each entry's pid
   and payload where [push] stored them, so a sift moves three
   immediates per level and never a pointer: no payload is written
   through the write barrier while the heap reorders.  Sifts move a
   hole rather than swapping: each level copies one parent or child
   into it, and the entry being placed is written once, at the end.

   The free slots live in [slots] past [len], as a stack: [push] takes
   the slot at position [len], and [drop] puts the slot it frees at the
   new [len], so the next push takes the slot the last drop freed and
   overwrites its payload.  The drop that empties the heap clears its
   own slot, and a grow fills the new slots with [vacant].  A drop that
   leaves entries queued does not clear its slot, so that payload stays
   reachable until a push takes the slot: clearing it measurably raised
   peak memory (DESIGN §6.2, "The queue sifts integers").

   A [push]/[drop] pair allocates nothing, and the accessor API
   ([top_time]/[top_pid]/[top]/[drop]) lets the engine run loop inspect
   and consume the minimum without materialising a
   [Some (time, payload)] tuple. *)

type 'a t = {
  mutable times : float array;  (* heap order, unboxed *)
  mutable seqs : int array;  (* heap order *)
  mutable slots : int array;  (* heap order below [len]; free slots from [len] *)
  mutable pids : int array;  (* by slot *)
  mutable data : 'a array;  (* by slot *)
  mutable len : int;
}

let create () =
  { times = [||]; seqs = [||]; slots = [||]; pids = [||]; data = [||]; len = 0 }

let size t = t.len
let is_empty t = t.len = 0

(* What an unused slot's payload is: an immediate the GC skips.  It is
   never returned, since [top] reads only the slot of a queued entry. *)
let vacant () = Obj.magic 0

let widen a ncap fill =
  let b = Array.make ncap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The runtime's [Max_young_wosize]: a longer array is made in the
   major heap. *)
let max_young_words = 256

(* Double every array.  The new slots are numbered from the old
   capacity and stored past it, where the free slots live.  Arrays
   that go to the major heap are made on an empty minor heap: the
   collection [Array.make] makes itself before it fills a long array
   with a young value.  Without it a run whose queues grow empties the
   minor heap less often and touches more of it (fleet-churn's peak
   resident set reads 104 MB instead of 72 MB under an 8M-word minor
   heap). *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  if ncap > max_young_words then Gc.minor ();
  t.times <- widen t.times ncap 0.0;
  t.seqs <- widen t.seqs ncap 0;
  t.slots <- widen t.slots ncap 0;
  for slot = cap to ncap - 1 do
    t.slots.(slot) <- slot
  done;
  t.pids <- widen t.pids ncap 0;
  t.data <- widen t.data ncap (vacant ())

(* Store the payload in a free slot, then sift a hole up from [len]
   past every parent that fires after (time, seq).  Inlined into both
   pushes, so the time read from a cell stays unboxed. *)
let[@inline] insert t time ~seq ~pid payload =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.len) in
  t.pids.(slot) <- pid;
  t.data.(slot) <- payload;
  let i = ref t.len and moving = ref true in
  t.len <- t.len + 1;
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    if time < times.(p) || (time = times.(p) && seq < seqs.(p)) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let push t ~time ~seq ~pid payload = insert t time ~seq ~pid payload
let push_cell t cell ~seq ~pid payload = insert t cell.(0) ~seq ~pid payload

let top_time t = t.times.(0)
let top_time_into t cell = cell.(0) <- t.times.(0)
let top_pid t = t.pids.(t.slots.(0))
let top t = t.data.(t.slots.(0))

(* Free the top's slot, then sift a hole down from the root, filling it
   with the earlier child while that child fires before the last
   entry, and place the last entry there.  Emptying the heap clears the
   freed slot's payload. *)
let drop t =
  let n = t.len - 1 in
  t.len <- n;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = slots.(0) in
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  slots.(n) <- freed;
  if n = 0 then t.data.(freed) <- vacant ()

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
