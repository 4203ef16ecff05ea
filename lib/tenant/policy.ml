type klass = Docker | Kvm

type t = Static of klass

let name = function Static Docker -> "docker" | Static Kvm -> "kvm"
