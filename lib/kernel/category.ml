type t = Process | Memory | File_io | Fs_mgmt | Ipc | Perm

let all = [ Process; Memory; File_io; Fs_mgmt; Ipc; Perm ]

let to_string = function
  | Process -> "process"
  | Memory -> "memory"
  | File_io -> "file-io"
  | Fs_mgmt -> "fs-mgmt"
  | Ipc -> "ipc"
  | Perm -> "perm"

let of_string = function
  | "process" -> Some Process
  | "memory" -> Some Memory
  | "file-io" -> Some File_io
  | "fs-mgmt" -> Some Fs_mgmt
  | "ipc" -> Some Ipc
  | "perm" -> Some Perm
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (to_string t)

let index = function
  | Process -> 0
  | Memory -> 1
  | File_io -> 2
  | Fs_mgmt -> 3
  | Ipc -> 4
  | Perm -> 5

let equal a b = index a = index b
