exception Io_error of string

(* Crash-consistent file replacement: the content is written to a
   sibling temp file, flushed, fsynced, and renamed over the
   destination.  POSIX rename is atomic within a filesystem, so a
   reader (or a crashed writer) observes either the old complete file
   or the new complete file — never a prefix.  The fsync before the
   rename matters: without it the rename can reach disk before the
   data, and a crash then leaves a complete-looking file full of
   zeroes.  The directory fsync after the rename matters just as much:
   the rename is a directory-entry update, and until the directory is
   synced a crash can forget the rename itself, resurrecting the old
   version after the writer reported success.  ENOSPC, EACCES and
   friends surface as [Io_error] with the path, so callers can map
   them to a distinct exit code instead of leaving a truncated file
   behind.

   Every host I/O primitive consults {!Iohook} first, so a caller can
   observe the op stream and a test can make an op fail with a chosen
   errno.  Transient errno ([EINTR]/[EAGAIN]) — real or injected — is
   absorbed by a bounded retry with exponential backoff; each retry
   re-consults the hook.

   The temp name carries the pid plus a process-local counter:
   concurrent writers to the same destination (parallel sweep workers,
   or two ksurf processes sharing an export directory) each write their
   own temp file instead of clobbering each other's, and the rename
   race resolves to one complete file. *)

let tmp_seq = Atomic.make 0

let tmp_name path =
  Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)

let tmp_infix = ".tmp."

let is_tmp_name name =
  let n = String.length name and m = String.length tmp_infix in
  let rec at i = i + m <= n && (String.sub name i m = tmp_infix || at (i + 1)) in
  at 0

let io_error ~path msg =
  Io_error (Printf.sprintf "cannot write %s: %s" path msg)

(* --- transient retry --------------------------------------------------- *)

let max_transient_attempts = 16

let backoff attempt =
  (* 1us doubling to a 1ms cap: sub-20ms worst case over a full retry
     budget, enough to let a real transient condition pass. *)
  Unix.sleepf (Float.min 1e-3 (1e-6 *. Float.of_int (1 lsl Int.min attempt 10)))

let retrying f =
  let rec go attempt =
    try f () with
    | Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _)
      when attempt < max_transient_attempts ->
        backoff attempt;
        go (attempt + 1)
  in
  go 0

(* Consult the ambient hook; injected failures become Unix_error so the
   retry/Io_error machinery treats them exactly like real ones. *)
let consult op =
  match Iohook.consult op with
  | Iohook.Proceed -> ()
  | Iohook.Fail e -> raise (Unix.Unix_error (e, "ksurf-injected", Iohook.path_of op))

(* Directory-entry durability.  Injected faults surface (and retry)
   like any other op; errors from the real fsync are swallowed because
   some filesystems refuse fsync on a directory fd (EINVAL) and there
   is nothing useful a caller can do about it. *)
let fsync_dir dir =
  retrying (fun () ->
      consult (Iohook.Fsync_dir { path = dir });
      match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ()))

let write_atomic ~path f =
  let tmp = tmp_name path in
  let remove_tmp () = try Sys.remove tmp with Sys_error _ -> () in
  (try
     let fd =
       retrying (fun () ->
           consult (Iohook.Open { path = tmp });
           Unix.openfile tmp
             [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
             0o644)
     in
     let oc = Unix.out_channel_of_descr fd in
     Fun.protect
       ~finally:(fun () -> close_out_noerr oc)
       (fun () ->
         f oc;
         flush oc;
         retrying (fun () ->
             consult (Iohook.Fsync { path = tmp });
             Unix.fsync fd))
   with
  | Sys_error msg ->
      remove_tmp ();
      raise (io_error ~path msg)
  | Unix.Unix_error (e, _, _) ->
      remove_tmp ();
      raise (io_error ~path (Unix.error_message e)));
  try
    retrying (fun () ->
        consult (Iohook.Rename { src = tmp; dst = path });
        Sys.rename tmp path);
    fsync_dir (Filename.dirname path)
  with
  | Sys_error msg ->
      remove_tmp ();
      raise (Io_error (Printf.sprintf "cannot replace %s: %s" path msg))
  | Unix.Unix_error (e, _, _) ->
      remove_tmp ();
      raise
        (Io_error
           (Printf.sprintf "cannot replace %s: %s" path (Unix.error_message e)))

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" then ()
  else
    match (Unix.stat dir).Unix.st_kind with
    | Unix.S_DIR -> ()
    | _ -> raise (Io_error (dir ^ ": exists but is not a directory"))
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
        ensure_dir (Filename.dirname dir);
        try
          retrying (fun () ->
              consult (Iohook.Mkdir { path = dir });
              try Unix.mkdir dir 0o755
              with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
          (* First creation: make the new entry durable, or a crash can
             forget the directory along with everything inside it. *)
          fsync_dir (Filename.dirname dir)
        with Unix.Unix_error (e, _, _) ->
          raise
            (Io_error
               (Printf.sprintf "cannot create directory %s: %s" dir
                  (Unix.error_message e))))
    | exception Unix.Unix_error (e, _, _) ->
        raise
          (Io_error
             (Printf.sprintf "cannot access %s: %s" dir (Unix.error_message e)))

let remove path =
  try
    retrying (fun () ->
        consult (Iohook.Remove { path });
        Sys.remove path)
  with
  | Sys_error msg ->
      raise (Io_error (Printf.sprintf "cannot remove %s: %s" path msg))
  | Unix.Unix_error (e, _, _) ->
      raise
        (Io_error
           (Printf.sprintf "cannot remove %s: %s" path (Unix.error_message e)))

let sweep_tmp ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | entries ->
      Array.fold_left
        (fun n entry ->
          if is_tmp_name entry then begin
            remove (Filename.concat dir entry);
            n + 1
          end
          else n)
        0 entries

let read_lines path =
  try
    retrying (fun () ->
        consult (Iohook.Read { path });
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let rec loop acc =
              match input_line ic with
              | line -> loop (line :: acc)
              | exception End_of_file -> List.rev acc
            in
            loop []))
  with
  | Sys_error msg ->
      raise (Io_error (Printf.sprintf "cannot read %s: %s" path msg))
  | Unix.Unix_error (e, _, _) ->
      raise
        (Io_error
           (Printf.sprintf "cannot read %s: %s" path (Unix.error_message e)))
