package fhe

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mqxgo/internal/rns"
	"mqxgo/internal/u128"
)

// TestGoldenOutputHashes pins the bits both backends produce from a fixed
// seed: the secret, the relin and Galois key rows, and every ciphertext
// of an encrypt → mul → rotate → modswitch chain plus its decryption,
// each SHA-256-hashed against a committed constant. A refactor that
// claims bit-identical outputs must leave every hash as it is. Every
// hashed value is a canonical residue and the samplers draw through
// rand.Rand's Intn (bounds below 2^31) and Uint64, so the hashes hold at
// every kernel tier, worker count and word size. The degrees leave five,
// six and eleven partial forward passes before the RNS backend's fused
// relinearization MAC, so both landings of its ping-pong run, and 4096
// is the 128-bit split floor: from GOMAXPROCS 2 up the oracle's products
// and inverse transforms run split.
func TestGoldenOutputHashes(t *testing.T) {
	want := map[string]string{
		"u128/n64/secret":        "e47711291c00c43cf30f8520bfd8f44d47e37c4cac5fa37938a2c2976a75fa48",
		"u128/n64/relin":         "cdd23efeca883f72dda2a85b8cdab0e2b4cd4567756c2396bb81bee41b3ba20e",
		"u128/n64/galois":        "f58590fe13b113dec070073887debc7ee1df70aa05629fce0e6ecf2e767dd26d",
		"u128/n64/encrypt":       "ece2b743b407c12202d96476b9c77575f0cc8c47decc1fae34a6ffcb16ea9ed6",
		"u128/n64/mul":           "458fb3d098a9ce81534e24772953a4e620ff0a065beb76c8e3f4d52a3c7091bb",
		"u128/n64/rotate":        "72b7b6d67733a0d1b4f679047b2b85bd90aead7c302e4fd65b0095ef700c1403",
		"u128/n64/modswitch":     "91088ac072b84e868557e32d791003290717caaab409aa44c7c429d338c29f50",
		"u128/n64/decrypt":       "a9aac0e1c6d1b04ceb80e4cb43b71fc26bbed60281f4100898eff492a4c63497",
		"rns-k3/n64/secret":      "a37b639328fabc57e7bf1facc5ecdb4c08036a00f799d676acc63d40d13d4ad1",
		"rns-k3/n64/relin":       "f01ae13fce5ba0c07fb86c2508ff4256368b0747f993fb8eaffea30e89f563a7",
		"rns-k3/n64/galois":      "4da86d0c2799875f54362a7446e0d10c3ed11413063fb94a8a6c37db4b1985e2",
		"rns-k3/n64/encrypt":     "1387d83cb414eed01ed40cc30fd58206fc714b89e43bbf336a5bfd8c9629f890",
		"rns-k3/n64/mul":         "6ae03c96059638c78c885706f14d5672370ebe532af92e103c2d7479bcb53a76",
		"rns-k3/n64/rotate":      "a555c2c5376c4c627587d46f9bcccf43ec31ffb0a37e0fc6b7e3a104a5235134",
		"rns-k3/n64/modswitch":   "063992ff8fc09a3990d8f47511b625b5aa6f8bdda6c1e0de22339711b22d2e7f",
		"rns-k3/n64/decrypt":     "a9aac0e1c6d1b04ceb80e4cb43b71fc26bbed60281f4100898eff492a4c63497",
		"u128/n128/secret":       "00cdc0b07be41acc732234133832e47d1c2a95cef3e920ceed36d2fc0aa8e944",
		"u128/n128/relin":        "661bc57e36525d4eb5d63b544d6006446c21a756fc9774a8a6e90ff40e2e397a",
		"u128/n128/galois":       "35a440741a58c890c3919ce9741f07805dcb559dc07391f7004dfdeef48c658e",
		"u128/n128/encrypt":      "c34c5e88b816a20d23814c9a01e911cb31ad4015c7970ba8b4686017cacd3e7f",
		"u128/n128/mul":          "390c3c8a0960dde15f09ef8213439062c134b8d179b8e986e92e175e0640f62f",
		"u128/n128/rotate":       "269db41b3d0b862e310426bc0a47164e75238805a04f3c78283aae4604fb935b",
		"u128/n128/modswitch":    "d47efdf36d187992a02134f9cab2dfe5c45218bc4f59bf02429603a3ec129b8f",
		"u128/n128/decrypt":      "f844af4c2624021efc34aefdbeecba424f5f36cb3426df2fcbe3d506b75aa96f",
		"rns-k3/n128/secret":     "3a678c17ae5589aadff98296b5abe7069ffd3947fb52fb552f8d5fcea33a7f68",
		"rns-k3/n128/relin":      "a21be18a018bd8b4d02d095954fb12da267bc510366157a1918a359d3288036f",
		"rns-k3/n128/galois":     "90ab746bcf616e7efc53d25c224e7becf9b6afdf2a97a8cc96497142b2aa0df8",
		"rns-k3/n128/encrypt":    "f5193e9a2cf8c37429b0d6bfbb15af407ac552eb1b2131bfbaa0da7b815d26a0",
		"rns-k3/n128/mul":        "79e7ea39db9218dbda49ee0e1e526c0b6ec2d0669f4c47530f40eefa6a5a3dcf",
		"rns-k3/n128/rotate":     "1bd96d41447fd080915bc7dda09ccf2bc428768634a16affe3543308da07e027",
		"rns-k3/n128/modswitch":  "ae822d770bf2b60a63f58d94901332dc1ff9a1d1fe2b02c0a2f44e9f83fd8f75",
		"rns-k3/n128/decrypt":    "f844af4c2624021efc34aefdbeecba424f5f36cb3426df2fcbe3d506b75aa96f",
		"u128/n4096/secret":      "7b8afac9158e3f633b80f1ca6657861e3b06a70e2f870239bb6977a1ddda37c2",
		"u128/n4096/relin":       "24e06d76bc9b43b474dddd6433594d3446a8510743a8d4ba30a55dbbd232f7db",
		"u128/n4096/galois":      "ac4be1ecded9f3617157ab555f5707e20080604881f9ebc8d94d01ebdd4c9e63",
		"u128/n4096/encrypt":     "a2732ef8328630454a4529bcdf68ab88bdc79cab1259168027c09d1d055ed613",
		"u128/n4096/mul":         "24ee8259f0adf553adae6768d229e44b37b5908471f36c5170c6b6ad5504e7ef",
		"u128/n4096/rotate":      "ba9e99c926156c00ffe4eb75e928831ad096aea7407e9f16472dddd922c4d7f2",
		"u128/n4096/modswitch":   "3519a40f22eec439c2a0e7c01d842c8fa0453499898b957a808b263f3153c5cf",
		"u128/n4096/decrypt":     "5f3a8866db85de112855845f59921867e2f3c6808c80ea6103e971394e92eb6a",
		"rns-k3/n4096/secret":    "2b6d25e280016780eb8598f5a4636a32b97f4af430580c702ac5a78b988dc2cb",
		"rns-k3/n4096/relin":     "c5aa3d15034cf8af6821e160b62e9064bd5dd21105a6f70d620c3264ffe3901a",
		"rns-k3/n4096/galois":    "09960dcb5b628642db1f9812a5eb2205bb728fe7902ac6a6693cf9a2a75b0001",
		"rns-k3/n4096/encrypt":   "f7b4f1016d4811e43c192f6271e53bbcd8fb6db2921a6e1031e6c1ba6a343c6d",
		"rns-k3/n4096/mul":       "bbfc20f5f93f8b83d61a64dfaf8648fdedf1f62b979d4bce82be73f8c196c2e1",
		"rns-k3/n4096/rotate":    "67ac9b383dc508da9dec61d85b0fd4dec15b24c50441d411d4cab8f138c5bca4",
		"rns-k3/n4096/modswitch": "0744953414cbd97d90878c3526564df8a79c8056fd966f350e82e31f535bb3e1",
		"rns-k3/n4096/decrypt":   "5f3a8866db85de112855845f59921867e2f3c6808c80ea6103e971394e92eb6a",
	}
	ctx := context.Background()
	for _, n := range []int{64, 128, 4096} {
		for _, b := range packedBackends(t, n) {
			prefix := fmt.Sprintf("%s/n%d/", b.Name(), n)
			check := func(item string, write func(h *rowHasher)) {
				t.Helper()
				h := newRowHasher()
				write(h)
				got := h.sum()
				if got != want[prefix+item] {
					t.Errorf("%s%s: hash %s, want %s", prefix, item, got, want[prefix+item])
				}
			}
			s := NewBackendScheme(b, 2024)
			sk := s.KeyGen()
			rlk, err := s.RelinKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			gk, err := s.GaloisKeyGen(sk)
			if err != nil {
				t.Fatal(err)
			}
			check("secret", func(h *rowHasher) { h.poly(sk.S) })
			check("relin", func(h *rowHasher) { h.relin(rlk) })
			check("galois", func(h *rowHasher) { h.galois(gk, n) })

			ctX, err := s.Encrypt(sk, mustMsg(t, s, randomSlots(n, 11)))
			if err != nil {
				t.Fatal(err)
			}
			ctY, err := s.Encrypt(sk, mustMsg(t, s, randomSlots(n, 12)))
			if err != nil {
				t.Fatal(err)
			}
			check("encrypt", func(h *rowHasher) { h.ct(ctX); h.ct(ctY) })
			prod, err := s.MulCiphertextsCtx(ctx, ctX, ctY, rlk)
			if err != nil {
				t.Fatal(err)
			}
			check("mul", func(h *rowHasher) { h.ct(prod) })
			rot, err := s.RotateSlotsCtx(ctx, prod, 3, gk)
			if err != nil {
				t.Fatal(err)
			}
			check("rotate", func(h *rowHasher) { h.ct(rot) })
			low, err := s.ModSwitchCtx(ctx, rot)
			if err != nil {
				t.Fatal(err)
			}
			check("modswitch", func(h *rowHasher) { h.ct(low) })
			dec, err := s.Decrypt(sk, low)
			if err != nil {
				t.Fatal(err)
			}
			check("decrypt", func(h *rowHasher) { h.words(dec) })
		}
	}
}

// rowHasher hashes residue rows as little-endian 64-bit words, a 128-bit
// residue as its high word then its low word.
type rowHasher struct {
	h   hash.Hash
	buf []byte
}

func newRowHasher() *rowHasher { return &rowHasher{h: sha256.New()} }

func (r *rowHasher) sum() string { return hex.EncodeToString(r.h.Sum(nil)) }

func (r *rowHasher) words(ws []uint64) {
	r.buf = r.buf[:0]
	for _, w := range ws {
		r.buf = binary.LittleEndian.AppendUint64(r.buf, w)
	}
	r.h.Write(r.buf)
}

func (r *rowHasher) wide(xs []u128.U128) {
	r.buf = r.buf[:0]
	for _, x := range xs {
		r.buf = binary.LittleEndian.AppendUint64(r.buf, x.Hi)
		r.buf = binary.LittleEndian.AppendUint64(r.buf, x.Lo)
	}
	r.h.Write(r.buf)
}

func (r *rowHasher) poly(p Poly) {
	switch x := p.(type) {
	case []u128.U128:
		r.wide(x)
	case rns.Poly:
		for _, row := range x.Res {
			r.words(row)
		}
	default:
		panic(fmt.Sprintf("rowHasher: polynomial type %T", p))
	}
}

func (r *rowHasher) ct(ct BackendCiphertext) {
	r.words([]uint64{uint64(ct.Level)})
	r.poly(ct.A)
	r.poly(ct.B)
}

// levelKey hashes one gadget key level of either backend.
func (r *rowHasher) levelKey(k any) {
	switch lk := k.(type) {
	case *ringLevelKey:
		for d := range lk.ahat {
			r.wide(lk.ahat[d])
			r.wide(lk.bhat[d])
		}
	case *rnsLevelRelin:
		for i := range lk.a {
			for _, p := range [4]rns.Poly{lk.a[i], lk.b[i], lk.aPre[i], lk.bPre[i]} {
				r.poly(p)
			}
		}
	default:
		panic(fmt.Sprintf("rowHasher: key level type %T", k))
	}
}

// hashLevels hashes a key's gadget levels in order.
func hashLevels[L any](r *rowHasher, levels []L) {
	for l := range levels {
		r.levelKey(&levels[l])
	}
}

func (r *rowHasher) relin(rlk BackendRelinKey) {
	switch key := rlk.(type) {
	case *relinKey[ringLevelKey]:
		hashLevels(r, key.levels)
	case *relinKey[rnsLevelRelin]:
		hashLevels(r, key.levels)
	default:
		panic(fmt.Sprintf("rowHasher: relin key type %T", rlk))
	}
}

// galois hashes a Galois key set entry by entry in galoisKeyElements
// order, the order keygen draws them in.
func (r *rowHasher) galois(gk BackendGaloisKey, n int) {
	for _, g := range galoisKeyElements(n) {
		r.words([]uint64{g})
		switch key := gk.(type) {
		case *galoisKey[ringLevelKey]:
			hashLevels(r, key.entries[g].levels)
		case *galoisKey[rnsLevelRelin]:
			hashLevels(r, key.entries[g].levels)
		default:
			panic(fmt.Sprintf("rowHasher: Galois key type %T", gk))
		}
	}
}
