package incregraph

import (
	"reflect"
	"testing"
)

// TestCoreOptionsCarriesEveryField: every Config field that configures the
// engine reaches the same-named core.Options field through coreOptions, and
// no other field moves. Directed maps onto Undirected inverted; Ranks and
// Cluster are placement, filled in by NewCluster.
func TestCoreOptionsCarriesEveryField(t *testing.T) {
	if !coreOptions(Config{}).Undirected || coreOptions(Config{Directed: true}).Undirected {
		t.Fatal("Directed does not map onto Undirected inverted")
	}
	base := reflect.ValueOf(coreOptions(Config{}))
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		switch f.Name {
		case "Ranks", "Cluster", "Directed":
			continue
		}
		var cfg Config
		fv := reflect.ValueOf(&cfg).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int64:
			fv.SetInt(7)
		case reflect.Uint8:
			fv.SetUint(2)
		default:
			t.Fatalf("Config.%s: no test value for kind %s", f.Name, fv.Kind())
		}
		got := reflect.ValueOf(coreOptions(cfg))
		if ov := got.FieldByName(f.Name); !ov.IsValid() {
			t.Fatalf("Config.%s has no core.Options field of that name", f.Name)
		} else if !ov.Equal(fv) {
			t.Errorf("Config.%s = %v reaches core.Options as %v", f.Name, fv, ov)
		}
		for j := 0; j < got.NumField(); j++ {
			name := got.Type().Field(j).Name
			if name != f.Name && !reflect.DeepEqual(got.Field(j).Interface(), base.Field(j).Interface()) {
				t.Errorf("setting Config.%s also moved core.Options.%s", f.Name, name)
			}
		}
	}
}
