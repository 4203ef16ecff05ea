(* Operation-level hook beneath Fileio.

   Fileio consults the ambient handler before every host I/O primitive
   and obeys its verdict: proceed, or fail with an errno.  That is
   enough to observe a writer's op stream and to drive the retry and
   ENOSPC paths from a test with real Unix errors.

   The handler lives in Domain.DLS, not a global: a handler installed
   by one pool domain must not see (or perturb) the ops of another.
   With no handler installed (the normal case) consult is a DLS read
   and a match — no allocation. *)

type op =
  | Open of { path : string }
  | Fsync of { path : string }
  | Fsync_dir of { path : string }
  | Rename of { src : string; dst : string }
  | Remove of { path : string }
  | Read of { path : string }
  | Mkdir of { path : string }

type outcome = Proceed | Fail of Unix.error

type handler = op -> outcome

let path_of = function
  | Open { path }
  | Fsync { path }
  | Fsync_dir { path }
  | Remove { path }
  | Read { path }
  | Mkdir { path } ->
      path
  | Rename { src; _ } -> src

let key : handler option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let consult op =
  match Domain.DLS.get key with None -> Proceed | Some h -> h op

let with_handler h f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some h);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f
