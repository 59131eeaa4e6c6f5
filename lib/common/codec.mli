(** The byte codec every persisted artifact is written with: snapshot
    and depot sections ({!Repro_snapshot.Snapshot}) and rule sets
    ({!Repro_rules.Serialize}).

    A [nat] is a varint: 7 bits a byte, low bits first, the high bit
    set on every byte but the last, at most 9 bytes. An [int] is a
    zigzagged varint (0, -1, 1, -2 ... as 0, 1, 2, 3 ...). A bool is
    the nat 0 or 1, a string or an array its length as a nat, then its
    bytes or elements, an option a bool and then its value. Only
    [int64] words stay 8 bytes wide. *)

exception Corrupt of string
(** Every decoding failure, with a message naming the payload. *)

val fnv_basis : int

val fnv_fold : ?pos:int -> ?len:int -> int -> string -> int
(** [fnv_fold h s] continues FNV-1a-32 from [h] over bytes [pos]
    (default 0) to the end of [s], or [len] of them. *)

val fnv1a32 : string -> int
(** FNV-1a-32 of the whole string. *)

module Enc : sig
  type t = Buffer.t
  (** Raw bytes, such as a fixed header, go in with [Buffer]. *)

  val create : unit -> t
  val contents : t -> string

  val encode : (t -> unit) -> string
  (** The bytes [f] writes to a fresh encoder. *)

  val nat : t -> int -> unit
  (** Raises [Invalid_argument] on a negative number. *)

  val int : t -> int -> unit
  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val pair : (t -> 'a -> unit) -> (t -> 'b -> unit) -> t -> 'a * 'b -> unit

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  (** A bool, then the value when there is one. *)

  val enum : 'a list -> t -> 'a -> unit
  (** A value as its position in the list. *)

  val int_array : t -> int array -> unit
  val i64_array : t -> int64 array -> unit
end

(** Every decoding failure is {!Corrupt}, naming the payload: a varint
    longer than 9 bytes, a negative [nat], a bool other than 0 or 1, a
    count or length past the bytes left (refused before anything is
    allocated), an enumeration value past the list. *)
module Dec : sig
  type t

  val of_string : ?name:string -> ?pos:int -> string -> t
  (** A decoder from byte [pos] (default 0); [name] labels {!Corrupt}
      messages. *)

  val whole : ?pos:int -> name:string -> string -> (t -> 'a) -> 'a
  (** [f] over the payload from [pos] on; bytes it leaves unread are
      {!Corrupt}. *)

  val nat : t -> int
  val int : t -> int
  val bool : t -> bool

  val count : t -> int
  (** A nat counting things of a byte or more each, as arrays and
      strings are prefixed. *)

  val span : t -> int * int
  (** A length-prefixed string's offset and length, skipped, not
      copied. *)

  val string : t -> string
  val array : t -> (t -> 'a) -> 'a array
  val list : t -> (t -> 'a) -> 'a list
  val pair : (t -> 'a) -> (t -> 'b) -> t -> 'a * 'b
  val option : t -> (t -> 'a) -> 'a option
  val enum : 'a list -> t -> 'a
  val int_array : t -> int array
  val i64_array : t -> int64 array
  val finished : t -> bool
  (** All input consumed. *)
end
