package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// programDigest hashes every field of a Program: each Func's Entry, Level
// and DataBase, and each Block's address, size, flags, successor,
// terminator (callees included) and variable-length offsets. Nil and
// empty slices hash differently.
func programDigest(p *Program) string {
	h := sha256.New()
	var buf []byte
	u := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	i := func(v int) { u(uint64(int64(v))) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	n := func(isNil bool, l int) {
		if isNil {
			u(math.MaxUint64)
		} else {
			i(l)
		}
	}
	i(len(p.Funcs))
	u(p.CodeBytes)
	for fi := range p.Funcs {
		f := &p.Funcs[fi]
		n(f.Blocks == nil, len(f.Blocks))
		i(f.Entry)
		i(f.Level)
		u(f.DataBase)
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			u(blk.Addr)
			i(blk.NInstr)
			b(blk.Cold)
			b(blk.Split)
			i(blk.Next)
			offs := blockOffs(p, blk)
			n(offs == nil, len(offs))
			for _, o := range offs {
				u(uint64(o))
			}
			t := &blk.Term
			u(uint64(t.Kind))
			i(t.TargetBlock)
			i(t.Callee)
			callees := p.Callees(t)
			n(callees == nil, len(callees))
			for _, c := range callees {
				i(c)
			}
			u(math.Float64bits(t.TakenProb))
		}
		h.Write(buf)
		buf = buf[:0]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// blockOffs returns b's instruction byte offsets in p's offsets table,
// or nil for a fixed-size ISA, which has no table.
func blockOffs(p *Program, b *Block) []uint16 {
	if p.offs == nil {
		return nil
	}
	return p.offs[b.OffsAt : b.OffsAt+b.NInstr+1]
}

// TestProgramDigests pins the program of every preset byte for byte, so a
// change to how Build lays out or allocates the program cannot move a
// block, a branch or an offset. On a mismatch the error gives the new
// digest to pin after a deliberate change to program synthesis.
func TestProgramDigests(t *testing.T) {
	seen := 0
	for _, f := range Families() {
		for idx := 0; idx < FamilyCounts[f]; idx++ {
			cfg, err := Preset(f, idx)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Build(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			got := programDigest(p)
			seen++
			if want, ok := programDigests[cfg.Name]; !ok {
				t.Errorf("%s: no pinned digest", cfg.Name)
			} else if got != want {
				t.Errorf("%s: program digest %s, want %s", cfg.Name, got, want)
			}
		}
	}
	if seen != len(programDigests) {
		t.Errorf("built %d presets, %d digests pinned", seen, len(programDigests))
	}
	for _, c := range fallbackCases {
		cfg, err := Preset(FamilySPEC, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Functions, cfg.MaxDepth = c.functions, c.maxDepth
		cfg.WorkingSetFuncs = min(cfg.WorkingSetFuncs, c.functions)
		cfg.DriftFuncs = min(cfg.DriftFuncs, c.functions)
		p, err := Build(cfg)
		if err != nil {
			t.Fatalf("%d functions, depth %d: %v", c.functions, c.maxDepth, err)
		}
		if got := programDigest(p); got != c.digest {
			t.Errorf("%d functions, depth %d: program digest %s, want %s", c.functions, c.maxDepth, got, c.digest)
		}
	}
}

// fallbackCases are spec_001 with one or two functions per call level,
// so that pickCallee's scan runs out of candidates and takes its
// fallback. The first takes it only below the last function, where it
// returns the next function, and is pinned at the digest it had when the
// fallback always did that. The second takes it from the last function,
// where the next function wraps to level 0 (which used to break the
// static depth bound) and the fallback stays on the callee level.
var fallbackCases = []struct {
	functions, maxDepth int
	digest              string
}{
	{128, 64, "d902ec847f61b4722355ddd0380f2bf32c5f08bab68d002243813cb37509a349"},
	{100, 64, "9b148c6444a29d8e3f61b64f092af5f1605d1a923f0454fdffc55e5935eb3d29"},
}

// programDigests holds programDigest of every preset, captured before
// Build moved to arena allocation.
var programDigests = map[string]string{
	"client_001":     "62e8ea3ad97eba74d6bdf32d036ddaa04a985cc5e37225f850b69a0cb12197fb",
	"client_002":     "230f75ebe62bc1f075fd97b6684953992afea652e6e1c9947a1c1836e8fa039d",
	"client_003":     "77439fcd159f93f71162ad4693f78e7a6e6beda71996f92198be29a8b34fb58a",
	"client_004":     "ce83fdfe13ab519e9c8bf66a08c5a97d9bc02dbac56d1fdc16b47dcd6975d0d4",
	"client_005":     "fa360463f7236b43595bd13cebdc932a7df7745905bd975936dbee9865f42f71",
	"client_006":     "fe1a1baceac410a3f230efa6820b66e837fbf28540256d2ec20b5f158c0dd499",
	"client_007":     "97294f29fc617f952051a5cae0405ad36367e0e2de3f16e5265c96e3fea8ae39",
	"client_008":     "3763e0a86a2cca2821d32e35f7669f5fda544e7ba404db10631de28c7bdb9a8d",
	"cvp-fp_001":     "65966ff94e673a78de7f275ca76a969b929cfce46c5b4e0c2bd08dcd80d37fe6",
	"cvp-fp_002":     "e023ca8a163fe8c67cfa65f3968b64a425984787af712487a2ffeca83239a3ca",
	"cvp-fp_003":     "125040a138bc69a15f9bbc604b36eafbc506b620827d1d23680173aa96dec742",
	"cvp-fp_004":     "7b306bae19b15bf2f21e476986fa5956944561dd1679eb77d82347e795b45921",
	"cvp-fp_005":     "b0e92d9ffe0c86f971dd7d1bf752832432c5796fa97b2eff48b4632e18da3b36",
	"cvp-int_001":    "e3456b7980c86effa9816403fac8c79d106f96ae00000c7a86c5998f75b214e8",
	"cvp-int_002":    "4c267d77bd216d72685a48174190acf2dc3152fd03a62227bebb721467045ed5",
	"cvp-int_003":    "0d6c486ce023cb1e3451cf1503c584bcab0d7f009a27e407a354bda33af5e2ef",
	"cvp-int_004":    "c25f49a28e406daf394f3f9d402afca64b058267e87442a8bea4781868c72813",
	"cvp-int_005":    "e8e14cc29f868757af2dac0b66941ebb426b13357533c7954718a0781e7e3a40",
	"cvp-int_006":    "a57fd189f0350c72c34ed1105532ec86ded15f7cfa37e8699936e381f9bd8f4b",
	"cvp-int_007":    "72b26509cacd9a8d21e8b45e45f4956221ddf9fc0bc005ef0513bb335ee0232a",
	"cvp-int_008":    "f43640fc5e8ed9b42aa48e787eaa271cbb9809cd03123e6267a6a945fed610c8",
	"cvp-server_001": "9d44b6c6955f8650d61193d544034821bbaf546b4d9462b93a37eb0040f97b68",
	"cvp-server_002": "a2ef64ad6bd4924eba6ec7548e7b1a9a8fccade0dba6f266b074c018955932d1",
	"cvp-server_003": "2822bf10c280ad29fabd519b58007754702e13b173aa9fa61ccc47112a8d1c56",
	"cvp-server_004": "1ae7f1e72681c8bd5c3c3ffeef9bb135493f6d4270b7929524dcee63d2fcaa46",
	"cvp-server_005": "00bfb277126705f9544c5252b6bc4ee19662e97bd1566b3b3547915cc9365b03",
	"cvp-server_006": "cda6555bc643ee63be9fc4f869579f1c988c64c04ccbe72b8191a4fa72c91819",
	"cvp-server_007": "41cd088a90d68abffbef03b45490ccc3b630caebe4a3dc20dca57b1208eb6388",
	"cvp-server_008": "94144b18f342e26ae13473cf127aabac74fb532dbb59838efe717b27069bb271",
	"cvp-server_009": "f2cb8420962a8eab5de82f3163156822181c347e5a86a69c6647483dd354377d",
	"cvp-server_010": "3e0a3e31143c7b5595ed72b88cb809bfa8b80febd7c12fb31d150cd5fcee95ec",
	"google_001":     "83ccbc1174e7e8d05975e6c53b6d292f821f164cbd889a5aa7e2018d91dc153f",
	"google_002":     "d9ef8d06feed62bb59d31133765d308add04acf170fb5bf7c405d5483c8f6419",
	"google_003":     "225475706a9903be234225f7b4c4967cf86d9269349537d7948588a263ee0fee",
	"google_004":     "567b3b0f0c1960c9f6ed1733c612f2f92059bc9441dce809cd3b9c1ac0350376",
	"google_005":     "c0a7d51a77653a0bb9694505bab42a681f32b5e4441e40423aa3a8566c57eed4",
	"google_006":     "388bd219b65739bc9bebc3c9ccb8d893505ec6921c31dbc321f858456a5f96c5",
	"google_007":     "430e85d1eb3e2f44fe79981587f398dfa43823bd8084557e391c882f8c89f791",
	"google_008":     "c028e33fdc608bc4bbc2072ccabf5237cac75c87a72cdae89a914a7bf2398839",
	"server_001":     "e0357c526880945ee5b920e90cb74677037fca491d2e0c9df374301716565a66",
	"server_002":     "67b1553ef90bbbd1c3bb50bb14cdd0b92477d579c672adbbb12b0757657d3812",
	"server_003":     "79fc3484b1eaaf97445ac8bab4c5b53228587b1434748e213087483de98210b4",
	"server_004":     "2a8b6a969cb67fb36b78ccc3bcc45fd1fd9f96e677cfa106e29e08d4802a1fea",
	"server_005":     "4f2e9223afa8f04eeec61363571f7a8b58f59c1e4ceef71310856ce37671019f",
	"server_006":     "d5283dadbe899098921db3aa2209bb063bcacc7947f355e300db280f9e02a90a",
	"server_007":     "c4948193e59e446dd642b7f6a9e27bf0a282b1dba30042e49ee0a380cb942685",
	"server_008":     "ed841cc9bfb04061922ce3c6fdba83bc1bb0a6c259894fb6d35360a3d8a7e30f",
	"server_009":     "8ee5518daf25ae36b4e79e5f6907c0d0cb2062af587b5fe06ead15a0f6f3a649",
	"server_010":     "7999041d0f5e7dcc9fe9a4cf9175affa0f3adba05d99148e52b41e8478b7ed07",
	"server_011":     "564b684b5a52782fec3fa35ec95e25ffc815a8b4ae3b0f6d39ac4e80d3da8a5c",
	"server_012":     "67569190879158881dfc23ac6a8c38e800f353ab0b4fb8f3d6c056994b8ee660",
	"server_013":     "68b3b3b20cc31607f1e5448aeeea00caeafdcbe17adc78f7b25ab516db9e8aa1",
	"server_014":     "cd5ea5bd9113b078535ed4fc244641a5801fb024d85ce168ed4216ef00dd8e3d",
	"server_015":     "3c13f29494d4e0bad1e1fb563c99e2d9d1cebdcbefa037a26ad34470d63447a8",
	"server_016":     "22593bcca9a63099213ba83ec61f54875509c220369c0f7f0f7369c14fa3d8fa",
	"spec_001":       "b90f56a125bc9ea9906d0911fbc85219d744900abc71cd334dd24137c2de7395",
	"spec_002":       "ed8270d86f8aa6c36e45f04fcb50281aa8324e572e2fa2f36674753faf0ab75f",
	"spec_003":       "17f95989cc7b835cb7c9ff1cd4e88003f14f44eca4ab8e077d11013dd60e0658",
	"spec_004":       "a6022a33da55e5deccac10beacc7ad55513eed2a67d04ef44a60774e721eaa6c",
	"spec_005":       "09740af92b715f691f7a83c245fb7f032a4b685a0f44d4b3426d3db62ac45666",
	"spec_006":       "7274d5414a05e4396ae5efd0ba2c0f180c13972a79260fb7b90e57ec57ac7d10",
	"spec_007":       "3e62f2e2a1e885bd173b862a51eea5e7aa80dc7852f08626a9993ea24171cfe6",
	"spec_008":       "aa4695ecda10719744b1d5cb255d7ea4549a5c790d72492b05e3455e7ffce120",
	"spec_009":       "b730e6aab03ab1a0761cf5ec97c30e298d0a39c8b5e78ca6092992bcba53776b",
	"spec_010":       "003358a41b61caef4f0b8dff0dcf0bdcaea0f8ab75dfc73e4364027aa2f4a6ed",
	"x86-server_001": "f935f214657b0193ca694b8b1dc1ece34f643df0d42fa6cd5522eebc91389cd4",
	"x86-server_002": "673fe34cdec4c1c034cf96422531283564b0f5afa1fb6d294187ebd9e3815fbc",
	"x86-server_003": "2f2d6361449f3b2d333fe294f77e8ad33ab9d980aee898974658e8b2815eb933",
	"x86-server_004": "8db50293042bbd72f4bb9c84bff50b41b09cb07154c7c98ae9f32217c1c824af",
	"x86-server_005": "029c9a5e0412710da4b3c64ff9dbd0f773844f763c6d37c6664e75f0d78e4b89",
	"x86-server_006": "0b7970a531c7c5286bd95d8e0d26d4d945b59d9d378e375dae64e87def83a1dc",
}
