type klass = Native | Docker | Kvm | Multikernel

type t = Static of klass | Adaptive

let name = function
  | Static Native -> "native-shared"
  | Static Docker -> "docker"
  | Static Kvm -> "kvm"
  | Static Multikernel -> "multikernel"
  | Adaptive -> "adaptive"

let all =
  [ Static Native; Static Docker; Static Kvm; Static Multikernel; Adaptive ]

let of_string s = List.find_opt (fun p -> name p = s) all

let initial_klass = function Static k -> k | Adaptive -> Docker

let escalation t klass =
  match (t, klass) with
  | Adaptive, Docker -> Some Multikernel
  | Adaptive, _ | Static _, _ -> None
